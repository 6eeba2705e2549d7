// Bit-exact equivalence: ClusterEngine on the MPC substrate (every find-min
// through real simulated machine rounds) must output the identical spanner,
// profile and certified stretch to the same engine on the host under the
// same seed.
#include "mpc/dist_spanner.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "spanner/baswana_sen.hpp"
#include "spanner/cluster_merging.hpp"
#include "spanner/sqrtk.hpp"
#include "spanner/tradeoff.hpp"
#include "spanner/verify.hpp"

namespace mpcspan {
namespace {

class DistSpannerEquivalence
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint64_t, int>> {};

TEST_P(DistSpannerEquivalence, MatchesEngineExactly) {
  const auto [k, seed, weighted] = GetParam();
  Rng rng(seed * 97 + k);
  const WeightSpec weights = weighted ? WeightSpec{WeightModel::kUniform, 25.0}
                                      : WeightSpec{};
  const Graph g = gnmRandom(400, 2000, rng, weights, true);

  MpcSimulator sim(MpcConfig::forInput(8 * g.numEdges(), 0.6, 3.0));
  const DistSpannerResult dist = buildDistributedBaswanaSen(sim, g, k, seed);
  const SpannerResult engine = buildBaswanaSen(g, {.k = k, .seed = seed});

  EXPECT_EQ(dist.edges, engine.edges)
      << "k=" << k << " seed=" << seed << " weighted=" << weighted;
  // The same schedule, hence the same profile and certificate.
  EXPECT_EQ(dist.iterations, engine.iterations);
  EXPECT_EQ(dist.epochs, engine.epochs);
  EXPECT_EQ(dist.stretchBound, engine.stretchBound);
  EXPECT_EQ(dist.finalRadius, engine.finalRadius);
  EXPECT_EQ(dist.cost.ledgerString(), engine.cost.ledgerString());
  EXPECT_EQ(dist.stretchBound, 2.0 * k - 1.0);
  EXPECT_GT(dist.simulatorRounds, 0u);
  // O(1) communication rounds per iteration: one sort+reduce and one
  // reduce, each O(1) rounds, plus phase 2.
  EXPECT_LE(dist.simulatorRounds, 16u * (k + 1));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DistSpannerEquivalence,
    ::testing::Combine(::testing::Values(2u, 3u, 4u, 6u),
                       ::testing::Values<std::uint64_t>(1, 5),
                       ::testing::Values(0, 1)),
    [](const auto& info) {
      return "k" + std::to_string(std::get<0>(info.param)) + "_s" +
             std::to_string(std::get<1>(info.param)) +
             (std::get<2>(info.param) ? "_wt" : "_unit");
    });

class DistTradeoffEquivalence
    : public ::testing::TestWithParam<
          std::tuple<std::uint32_t, std::uint32_t, std::uint64_t>> {};

TEST_P(DistTradeoffEquivalence, MatchesEngineExactlyWithContractions) {
  const auto [k, t, seed] = GetParam();
  Rng rng(seed * 31 + k + t);
  const Graph g = gnmRandom(400, 2400, rng, {WeightModel::kUniform, 40.0}, true);

  MpcSimulator sim(MpcConfig::forInput(8 * g.numEdges(), 0.6, 3.0));
  const DistSpannerResult dist = buildDistributedTradeoff(sim, g, k, t, seed);
  TradeoffParams p;
  p.k = k;
  p.t = t;
  p.seed = seed;
  const SpannerResult engine = buildTradeoffSpanner(g, p);

  EXPECT_EQ(dist.edges, engine.edges) << "k=" << k << " t=" << t << " seed=" << seed;
  // The same schedule, hence the same profile and certificate.
  EXPECT_EQ(dist.iterations, engine.iterations);
  EXPECT_EQ(dist.epochs, engine.epochs);
  EXPECT_EQ(dist.stretchBound, engine.stretchBound);
  EXPECT_EQ(dist.finalRadius, engine.finalRadius);
  EXPECT_EQ(dist.supernodesPerEpoch, engine.supernodesPerEpoch);
  EXPECT_EQ(dist.clustersPerIteration, engine.clustersPerIteration);
  EXPECT_EQ(dist.cost.ledgerString(), engine.cost.ledgerString());
  EXPECT_EQ(tradeoffCertifiedStretch(k, t), dist.stretchBound);
  EXPECT_EQ(tradeoffCertifiedStretch(k, t), engine.stretchBound);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DistTradeoffEquivalence,
    ::testing::Combine(::testing::Values(4u, 8u, 16u), ::testing::Values(1u, 2u, 3u),
                       ::testing::Values<std::uint64_t>(3, 11)),
    [](const auto& info) {
      return "k" + std::to_string(std::get<0>(info.param)) + "_t" +
             std::to_string(std::get<1>(info.param)) + "_s" +
             std::to_string(std::get<2>(info.param));
    });

// The one engine on both substrates, for the schedules and the ablation no
// dist builder runs: sqrtk (its second probability is re-derived from the
// contracted size), cluster-merging, and strictLighterRule off.
class SubstrateEquivalence
    : public ::testing::TestWithParam<std::tuple<const char*, std::uint64_t, bool>> {};

TEST_P(SubstrateEquivalence, HostAndMpcBuildTheSameSpanner) {
  const auto [schedule, seed, strict] = GetParam();
  Rng rng(seed * 13 + 5);
  const Graph g = gnmRandom(400, 2400, rng, {WeightModel::kExponential, 40.0}, true);
  const std::uint32_t k = 9;
  const std::string name = schedule;
  const std::vector<EpochSpec> epochs =
      name == "sqrtk"             ? sqrtKSchedule(g.numVertices(), k)
      : name == "cluster-merging" ? tradeoffSchedule(g.numVertices(), k, 1)
                                  : tradeoffSchedule(g.numVertices(), k, 2);

  const SpannerResult host =
      ClusterEngine(g, k, {.seed = seed, .strictLighterRule = strict}).run(epochs);
  MpcSimulator sim(MpcConfig::forInput(8 * g.numEdges(), 0.6, 3.0));
  const SpannerResult dist =
      ClusterEngine(g, k, {.seed = seed, .strictLighterRule = strict, .sim = &sim})
          .run(epochs);

  EXPECT_EQ(dist.edges, host.edges);
  EXPECT_EQ(dist.iterations, host.iterations);
  EXPECT_EQ(dist.epochs, host.epochs);
  EXPECT_EQ(dist.supernodesPerEpoch, host.supernodesPerEpoch);
  EXPECT_EQ(dist.clustersPerIteration, host.clustersPerIteration);
  EXPECT_EQ(dist.samplingProbs, host.samplingProbs);
  EXPECT_EQ(dist.repetition.totalDraws, host.repetition.totalDraws);
  EXPECT_EQ(dist.finalRadius, host.finalRadius);
  EXPECT_EQ(dist.stretchBound, host.stretchBound);
  EXPECT_EQ(dist.cost.ledgerString(), host.cost.ledgerString());
  EXPECT_GT(sim.rounds(), 0u);
  if (strict && name == "sqrtk") {
    EXPECT_EQ(host.edges, buildSqrtKSpanner(g, {.k = k, .seed = seed}).edges);
  }
  if (strict && name == "cluster-merging") {
    EXPECT_EQ(host.edges, buildClusterMergingSpanner(g, {.k = k, .seed = seed}).edges);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SubstrateEquivalence,
    ::testing::Combine(::testing::Values("sqrtk", "cluster-merging", "tradeoff-t2"),
                       ::testing::Values<std::uint64_t>(2, 9),
                       ::testing::Bool()),
    [](const auto& info) {
      std::string name = std::get<0>(info.param);
      for (char& c : name)
        if (c == '-') c = '_';
      return name + "_s" + std::to_string(std::get<1>(info.param)) +
             (std::get<2>(info.param) ? "_strict" : "_ablated");
    });

TEST(DistSpanner, KOneReturnsAllEdges) {
  Rng rng(1);
  const Graph g = gnmRandom(50, 120, rng);
  MpcSimulator sim(MpcConfig::forInput(8 * g.numEdges(), 0.6, 3.0));
  const auto r = buildDistributedBaswanaSen(sim, g, 1, 1);
  EXPECT_EQ(r.edges.size(), g.numEdges());
  EXPECT_EQ(r.simulatorRounds, 0u);
}

TEST(DistSpanner, OutputIsAValidSpanner) {
  Rng rng(2);
  const Graph g = gnmRandom(300, 1800, rng, {WeightModel::kExponential, 40.0}, true);
  MpcSimulator sim(MpcConfig::forInput(8 * g.numEdges(), 0.6, 3.0));
  const std::uint32_t k = 4;
  const auto r = buildDistributedBaswanaSen(sim, g, k, 7);
  const auto report = verifySpanner(g, r.edges, 2.0 * k - 1.0);
  EXPECT_TRUE(report.spanning);
  EXPECT_EQ(report.violations, 0u);
}

TEST(DistSpanner, RoundsScaleWithKNotN) {
  Rng rng(3);
  const Graph small = gnmRandom(200, 1000, rng, {}, true);
  const Graph large = gnmRandom(1600, 8000, rng, {}, true);
  MpcSimulator simSmall(MpcConfig::forInput(8 * small.numEdges(), 0.6, 3.0));
  MpcSimulator simLarge(MpcConfig::forInput(8 * large.numEdges(), 0.6, 3.0));
  const auto rs = buildDistributedBaswanaSen(simSmall, small, 4, 9);
  const auto rl = buildDistributedBaswanaSen(simLarge, large, 4, 9);
  // 8x more data, same number of communication rounds (within slack: round
  // counts vary by +-1 with the broadcast fan-out).
  EXPECT_LE(rl.simulatorRounds, rs.simulatorRounds + 8);
}

TEST(DistSpanner, TradeoffRoundsAreConstantOverA64xWeakScalingSweep) {
  // Theorem 1.1's headline on bench_f5_weak_scaling's sweep: at fixed k, t
  // and gamma the simulator runs the same number of rounds at every n.
  std::vector<std::size_t> rounds;
  for (const std::size_t n : {1024u, 4096u, 16384u, 65536u}) {
    Rng rng(n + 9);
    const Graph g =
        gnmRandom(n, 8 * n, rng, {WeightModel::kUniform, 100.0}, true);
    MpcSimulator sim(MpcConfig::forInput(8 * g.numEdges(), 0.6, 3.0));
    rounds.push_back(buildDistributedTradeoff(sim, g, 8, 2, 91).simulatorRounds);
  }
  EXPECT_EQ(rounds, std::vector<std::size_t>(rounds.size(), rounds.front()))
      << "rounds at n = 1024, 4096, 16384, 65536: " << rounds[0] << ", "
      << rounds[1] << ", " << rounds[2] << ", " << rounds[3];
}

}  // namespace
}  // namespace mpcspan
