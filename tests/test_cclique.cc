#include "cclique/apsp_cc.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "cclique/spanner_cc.hpp"
#include "graph/distance.hpp"
#include "graph/generators.hpp"
#include "spanner/verify.hpp"

namespace mpcspan {
namespace {

TEST(CliqueCollectRounds, RejectsZeroNodes) {
  EXPECT_THROW(cliqueCollectRounds(0, 10), std::invalid_argument);
}

TEST(CliqueCollectRounds, RoundFormula) {
  // 100 words at 10 words/round -> 10 rounds + 1 spread round.
  EXPECT_EQ(cliqueCollectRounds(11, 100), 11u);
  EXPECT_EQ(cliqueCollectRounds(101, 100), 2u);
  // A single node receives one word per round.
  EXPECT_EQ(cliqueCollectRounds(1, 3), 4u);
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

TEST(CcApsp, RoundsArePinned) {
  // Frozen clique round counts of one seeded build. Every clique round is
  // accounted by formula (buildCcSpanner's ledger, cliqueCollectRounds),
  // so a change to either formula or to the Theorem 8.1 construction shows
  // up here.
  Rng rng(7);
  const Graph g = gnmRandom(1000, 8000, rng, {WeightModel::kUniform, 50.0}, true);
  const auto r = runCcApsp(g, {.seed = 11});
  EXPECT_EQ(r.kUsed, 10u);
  EXPECT_EQ(r.tUsed, 4u);
  EXPECT_EQ(r.oracle.spanner().edges.size(), 4638u);
  EXPECT_EQ(r.spannerRounds, 43);
  EXPECT_EQ(r.collectRounds, 11);
  EXPECT_EQ(r.totalRounds, 54);
  EXPECT_EQ(r.oracle.spanner().cost.cliqueRounds(), 43);
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
