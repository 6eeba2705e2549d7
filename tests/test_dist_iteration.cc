// Equivalence of the spanner growth iteration's find-minimum on its two
// substrates: findMinimum on the host (sim null) and on the MPC RoundEngine
// (real tuples through capacity-enforced rounds) must produce bit-identical
// group minima and join decisions.
#include "mpc/dist_iteration.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "spanner/engine.hpp"

namespace mpcspan {
namespace {

std::vector<VertexId> identity(std::size_t n) {
  std::vector<VertexId> v(n);
  std::iota(v.begin(), v.end(), 0);
  return v;
}

class DistIterationEquivalence
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, double>> {};

TEST_P(DistIterationEquivalence, HostAndMpcSubstratesAgree) {
  const auto [seed, p] = GetParam();
  Rng rng(seed);
  const Graph g = gnmRandom(600, 3600, rng, {WeightModel::kUniform, 20.0}, true);
  const std::vector<VertexId> superOf = identity(g.numVertices());
  const std::vector<VertexId> clusterOf = identity(g.numVertices());
  const std::vector<char> sampled =
      HashCoinPolicy::draw(std::vector<char>(g.numVertices(), 1), p, seed, 1);

  // The host substrate.
  const DistIterationResult ref =
      findMinimum(nullptr, g, superOf, clusterOf, sampled);

  // MPC substrate: real sample sorts and segmented minima.
  const MpcConfig cfg = MpcConfig::forInput(4 * g.numEdges(), 0.6, 3.0);
  MpcSimulator sim(cfg);
  ASSERT_GT(sim.numMachines(), 1u);
  const DistIterationResult dist =
      distIterationKernel(sim, g, superOf, clusterOf, sampled);
  EXPECT_EQ(dist.groupMins, ref.groupMins);
  EXPECT_EQ(dist.joins, ref.joins);
  EXPECT_EQ(ref.roundsUsed, 0u);

  // Superstep 1 is lightestPerKey (a sort and a segmented min). Superstep 2
  // reads its key-sorted output, so it adds only the segmented min's
  // boundary and fix rounds: no sort.
  MpcSimulator fresh(cfg);
  (void)lightestPerKey(buildCandidates(g, superOf, clusterOf, sampled), &fresh);
  EXPECT_GT(fresh.rounds(), 0u);
  EXPECT_EQ(dist.roundsUsed, fresh.rounds() + 2);
}

TEST(DistIteration, MpcKernelIsThreadCountInvariant) {
  Rng rng(21);
  const Graph g = gnmRandom(500, 3000, rng, {WeightModel::kUniform, 12.0}, true);
  const std::vector<VertexId> ident = identity(g.numVertices());
  const std::vector<char> sampled =
      HashCoinPolicy::draw(std::vector<char>(g.numVertices(), 1), 0.3, 21, 1);

  MpcSimulator one(MpcConfig::forInput(4 * g.numEdges(), 0.6, 3.0), /*threads=*/1);
  MpcSimulator four(MpcConfig::forInput(4 * g.numEdges(), 0.6, 3.0), /*threads=*/4);
  const DistIterationResult a = distIterationKernel(one, g, ident, ident, sampled);
  const DistIterationResult b = distIterationKernel(four, g, ident, ident, sampled);
  EXPECT_EQ(a.groupMins, b.groupMins);
  EXPECT_EQ(a.joins, b.joins);
  EXPECT_EQ(a.roundsUsed, b.roundsUsed);
  EXPECT_EQ(one.rounds(), four.rounds());
  EXPECT_EQ(one.totalWordsSent(), four.totalWordsSent());
  EXPECT_EQ(one.maxRoundWords(), four.maxRoundWords());
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndProbs, DistIterationEquivalence,
    ::testing::Combine(::testing::Values<std::uint64_t>(1, 2, 3),
                       ::testing::Values(0.1, 0.4, 0.8)),
    [](const auto& info) {
      return "s" + std::to_string(std::get<0>(info.param)) + "_p" +
             std::to_string(static_cast<int>(std::get<1>(info.param) * 10));
    });

TEST(DistIteration, MidRunClusteringWithExitsAndSupernodes) {
  // Simulate a later-epoch state: some vertices contracted into supernodes,
  // some exited, clusters spanning several supernodes.
  Rng rng(9);
  const Graph g = gnmRandom(400, 2400, rng, {WeightModel::kUniform, 9.0}, true);
  const std::size_t n = g.numVertices();
  std::vector<VertexId> superOf(n);
  for (VertexId v = 0; v < n; ++v)
    superOf[v] = (v % 10 == 9) ? kNoVertex : v / 2;  // pairs + 10% inactive
  const std::size_t nSuper = n / 2;
  std::vector<VertexId> clusterOf(nSuper);
  for (VertexId s = 0; s < nSuper; ++s)
    clusterOf[s] = (s % 7 == 6) ? kNoVertex : (s / 4) * 4;  // 4-super clusters
  std::vector<char> sampled(nSuper, 0);
  for (VertexId s = 0; s < nSuper; s += 4) sampled[s] = (s / 4) % 3 == 0;

  MpcSimulator sim(MpcConfig::forInput(4 * g.numEdges(), 0.6, 3.0));
  const DistIterationResult dist =
      distIterationKernel(sim, g, superOf, clusterOf, sampled);
  const DistIterationResult ref =
      findMinimum(nullptr, g, superOf, clusterOf, sampled);
  EXPECT_EQ(dist.groupMins, ref.groupMins);
  EXPECT_EQ(dist.joins, ref.joins);
}

TEST(DistIteration, NoSampledClustersMeansNoJoins) {
  Rng rng(11);
  const Graph g = gnmRandom(100, 300, rng, {}, true);
  MpcSimulator sim(MpcConfig::forInput(4 * g.numEdges(), 0.6, 3.0));
  const auto r = distIterationKernel(sim, g, identity(100), identity(100),
                                     std::vector<char>(100, 0));
  EXPECT_TRUE(r.joins.empty());
  EXPECT_FALSE(r.groupMins.empty());
}

TEST(DistIteration, AllSampledMeansNoCandidates) {
  Rng rng(13);
  const Graph g = gnmRandom(100, 300, rng, {}, true);
  MpcSimulator sim(MpcConfig::forInput(4 * g.numEdges(), 0.6, 3.0));
  const auto r = distIterationKernel(sim, g, identity(100), identity(100),
                                     std::vector<char>(100, 1));
  EXPECT_TRUE(r.groupMins.empty());
  EXPECT_TRUE(r.joins.empty());
}

TEST(DistIteration, ParallelEdgesAgreeAcrossSubstrates) {
  // GraphBuilder stages duplicate (u,v) pairs verbatim; every parallel
  // edge is its own candidate, and the lighter one wins its group.
  GraphBuilder b(4);
  b.addEdge(0, 1, 5.0);
  b.addEdge(0, 1, 3.0);  // parallel, lighter
  b.addEdge(1, 2, 2.0);
  b.addEdge(2, 3, 1.0);
  b.addEdge(0, 3, 4.0);
  const Graph g = b.build();
  const std::vector<char> sampled{0, 1, 0, 1};

  const auto ref = findMinimum(nullptr, g, identity(4), identity(4), sampled);
  MpcSimulator sim(MpcConfig::forInput(64, 0.6, 3.0));
  const auto dist = distIterationKernel(sim, g, identity(4), identity(4), sampled);
  EXPECT_EQ(dist.groupMins, ref.groupMins);
  EXPECT_EQ(dist.joins, ref.joins);
  // The lighter parallel edge wins its group.
  ASSERT_FALSE(ref.groupMins.empty());
  EXPECT_EQ(ref.groupMins[0].w, 3.0);
}

TEST(DistIteration, JoinsPickStrictMinimumWithEdgeIdTieBreak) {
  // Star around 0 with equal weights: cluster roots 1..4 sampled; vertex 0
  // unsampled must pick the smallest edge id among the ties.
  GraphBuilder b(5);
  for (VertexId v = 1; v < 5; ++v) b.addEdge(0, v, 2.0);
  const Graph g = b.build();
  std::vector<char> sampled{0, 1, 1, 1, 1};
  MpcSimulator sim(MpcConfig::forInput(64, 0.6, 3.0));
  const auto r =
      distIterationKernel(sim, g, identity(5), identity(5), sampled);
  ASSERT_EQ(r.joins.size(), 1u);
  EXPECT_EQ(r.joins[0].v, 0u);
  EXPECT_EQ(r.joins[0].id, 0u);
  EXPECT_EQ(r.joins[0].cluster, g.edge(0).v);
}

}  // namespace
}  // namespace mpcspan
