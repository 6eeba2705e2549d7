#include "cclique/clique.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "cclique/apsp_cc.hpp"
#include "cclique/spanner_cc.hpp"
#include "graph/distance.hpp"
#include "graph/generators.hpp"
#include "probe_kernels.hpp"
#include "spanner/verify.hpp"

namespace mpcspan {
namespace {

TEST(CongestedClique, RoundDeliversAndCounts) {
  CongestedClique cc(4);
  test_kernels::Outboxes out(4);
  out[0].push_back({1, {42}});
  out[2].push_back({1, {43}});
  out[1].push_back({0, {44}});
  const auto inbox = test_kernels::scriptedRound(cc.engine(), std::move(out));
  EXPECT_EQ(cc.rounds(), 1u);
  ASSERT_EQ(inbox[1].size(), 2u);
  EXPECT_EQ(inbox[1][0].payload[0], 42u);
  EXPECT_EQ(inbox[0][0].src, 1u);
}

TEST(CongestedClique, RejectsDuplicatePairMessage) {
  CongestedClique cc(3);
  test_kernels::Outboxes out(3);
  out[0].push_back({1, {1}});
  out[0].push_back({1, {2}});
  EXPECT_THROW(test_kernels::scriptedRound(cc.engine(), std::move(out)),
               CapacityError);
}

TEST(CongestedClique, RejectsOversizedPayload) {
  // A pair carries exactly one word per round.
  CongestedClique cc(4);
  test_kernels::Outboxes out(4);
  out[0].push_back({1, {7, 8}});
  EXPECT_THROW(test_kernels::scriptedRound(cc.engine(), std::move(out)),
               CapacityError);
  EXPECT_EQ(cc.rounds(), 0u);
}

TEST(CongestedClique, RejectsZeroNodes) {
  EXPECT_THROW(CongestedClique(0), std::invalid_argument);
}

TEST(CongestedClique, LenzenRouteValidatesAndCharges) {
  CongestedClique cc(8);
  std::vector<std::size_t> send(8, 5), recv(8, 5);
  cc.lenzenRoute(send, recv);
  EXPECT_EQ(cc.rounds(), 2u);
  send[0] = 9;  // > n
  EXPECT_THROW(cc.lenzenRoute(send, recv), CapacityError);
}

TEST(CongestedClique, CollectToAllRoundFormula) {
  CongestedClique cc(11);
  // 100 words at 10 words/round -> 10 rounds + 1 spread round.
  EXPECT_EQ(cc.collectToAll(100), 11u);
  CongestedClique cc2(101);
  EXPECT_EQ(cc2.collectToAll(100), 2u);
}

TEST(RepetitionPolicy, AcceptsTypicalDrawQuickly) {
  Rng rng(1);
  const Graph g = gnmRandom(500, 2500, rng, {}, true);
  const auto r = buildCcSpanner(g, {.k = 8, .t = 2, .seed = 1});
  // Most iterations should accept an early draw; total draws stay far
  // below iterations * R.
  EXPECT_GT(r.repetition.totalDraws, 0l);
  const long maxDraws =
      static_cast<long>(r.iterations) *
      static_cast<long>(std::ceil(3.0 * std::log2(500.0)));
  EXPECT_LE(r.repetition.totalDraws, maxDraws);
}

TEST(CcSpanner, SizeBoundHoldsAcrossSeeds) {
  // Theorem 8.1's point: size O(n^{1+1/k}(t+log k)) w.h.p., not only in
  // expectation. Check a batch of seeds against a fixed envelope.
  Rng rng(2);
  const std::size_t n = 600;
  const Graph g = gnmRandom(n, 6000, rng, {WeightModel::kUniform, 10.0}, true);
  const std::uint32_t k = 6, t = 2;
  const double envelope =
      8.0 * std::pow(static_cast<double>(n), 1.0 + 1.0 / k) *
      (t + std::log2(static_cast<double>(k)));
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto r = buildCcSpanner(g, {.k = k, .t = t, .seed = seed});
    EXPECT_LT(static_cast<double>(r.edges.size()), envelope) << "seed " << seed;
    EXPECT_LE(r.edges.size(), g.numEdges());
  }
}

TEST(CcSpanner, StretchAuditAndCliqueRounds) {
  Rng rng(3);
  const Graph g = gnmRandom(400, 2000, rng, {WeightModel::kUniform, 5.0}, true);
  const auto r = buildCcSpanner(g, {.k = 8, .t = 2, .seed = 5});
  const auto report = verifySpanner(g, r.edges, r.stretchBound,
                                    {.maxEdgeChecks = 1000, .pairSources = 3});
  EXPECT_TRUE(report.spanning);
  EXPECT_EQ(report.violations, 0u);
  // Clique rounds = supersteps + 2 per iteration (Theorem 8.1 overhead).
  EXPECT_EQ(r.cost.cliqueRounds(),
            r.cost.nearLinearRounds() + 2 * static_cast<long>(r.iterations));
}

TEST(CcApsp, AutoParametersFollowN) {
  Rng rng(4);
  const Graph g = gnmRandom(512, 2048, rng, {WeightModel::kUniform, 20.0}, true);
  const auto r = runCcApsp(g, {.seed = 1});
  EXPECT_EQ(r.kUsed, 9u);  // ceil(log2 512)
  EXPECT_GE(r.tUsed, 1u);
  EXPECT_LE(r.tUsed, 4u);  // ~ log log n
  EXPECT_EQ(r.totalRounds, r.spannerRounds + r.collectRounds);
  EXPECT_GT(r.collectRounds, 0l);
}

TEST(CcApsp, ApproximationRespectsBound) {
  Rng rng(5);
  const Graph g = gnmRandom(300, 1800, rng, {WeightModel::kUniform, 10.0}, true);
  const auto r = runCcApsp(g, {.seed = 2});
  const auto approx = r.oracle.distancesFrom(0);
  const auto exact = dijkstra(g, 0);
  for (VertexId v = 0; v < g.numVertices(); ++v) {
    if (exact[v] == kInfDist) {
      EXPECT_EQ(approx[v], kInfDist);
      continue;
    }
    EXPECT_GE(approx[v] + 1e-9, exact[v]);  // spanner distances upper-bound
    if (exact[v] > 0) {
      EXPECT_LE(approx[v] / exact[v], r.approxBound + 1e-6);
    }
  }
}

TEST(CcApsp, CollectRoundsMatchSpannerSize) {
  Rng rng(6);
  const Graph g = gnmRandom(256, 1024, rng, {WeightModel::kUniform, 3.0}, true);
  const auto r = runCcApsp(g, {.seed = 3});
  const long expected =
      1 + static_cast<long>((2 * r.oracle.spanner().edges.size() + 254) / 255);
  EXPECT_EQ(r.collectRounds, expected);
}

}  // namespace
}  // namespace mpcspan
