#include "pram/pram.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "graph/generators.hpp"
#include "spanner/tradeoff.hpp"

namespace mpcspan {
namespace {

TEST(LogStar, KnownValues) {
  EXPECT_EQ(logStar(1.0), 0);
  EXPECT_EQ(logStar(2.0), 1);
  EXPECT_EQ(logStar(4.0), 2);
  EXPECT_EQ(logStar(16.0), 3);
  EXPECT_EQ(logStar(65536.0), 4);
  EXPECT_EQ(logStar(1e18), 5);
}

TEST(PramCost, DepthIsSuperstepsTimesLogStar) {
  Rng rng(1);
  const Graph g = gnmRandom(300, 1500, rng, {WeightModel::kUniform, 5.0}, true);
  TradeoffParams p;
  p.k = 8;
  p.t = 2;
  p.seed = 1;
  const SpannerResult r = buildTradeoffSpanner(g, p);
  const PramCost cost = pramCostOf(r, g.numVertices(), g.numEdges());
  EXPECT_EQ(cost.depth, r.cost.supersteps() * logStar(300.0));
  EXPECT_GE(cost.work, static_cast<long>(g.numEdges()));
}

TEST(PramCost, DepthBeatsBaswanaSenShape) {
  // The whole point of Section 1.3's PRAM claim: depth o(k) for the fast
  // algorithm vs Theta(k log* n) for [BS07]-style constructions.
  Rng rng(2);
  const Graph g = gnmRandom(400, 1600, rng, {}, true);
  TradeoffParams fast;
  fast.k = 64;
  fast.t = 1;
  fast.seed = 2;
  const PramCost fastCost =
      pramCostOf(buildTradeoffSpanner(g, fast), g.numVertices(), g.numEdges());
  // t=1 runs ceil(log2 64) = 6 iterations; [BS07] would run 63.
  EXPECT_LT(fastCost.depth, 64 * logStar(400.0));
}

TEST(LeaderForest, MergeSemantics) {
  LeaderForest lf(6);
  EXPECT_EQ(lf.numSets(), 6u);
  EXPECT_TRUE(lf.merge(0, 1));
  EXPECT_FALSE(lf.merge(1, 0));
  EXPECT_TRUE(lf.sameSet(0, 1));
  EXPECT_FALSE(lf.sameSet(0, 2));
  EXPECT_TRUE(lf.merge(2, 3));
  EXPECT_TRUE(lf.merge(0, 2));
  EXPECT_TRUE(lf.sameSet(1, 3));
  EXPECT_EQ(lf.numSets(), 3u);
  EXPECT_EQ(lf.setSize(1), 4u);
}

TEST(LeaderForest, QueriesAreSinglePointerReads) {
  LeaderForest lf(8);
  lf.merge(0, 1);
  lf.merge(2, 3);
  lf.merge(0, 2);
  // Every member points directly at the leader (no chains to chase).
  const std::uint32_t l = lf.leader(0);
  for (std::uint32_t v : {0u, 1u, 2u, 3u}) EXPECT_EQ(lf.leader(v), l);
}

TEST(LeaderForest, DepthIsOnePerMergeWorkIsSmallerSide) {
  LeaderForest lf(8);
  lf.merge(0, 1);  // work 1
  lf.merge(2, 3);  // work 1
  lf.merge(0, 2);  // sizes 2+2 -> work 2
  lf.merge(0, 4);  // sizes 4+1 -> work 1
  EXPECT_EQ(lf.depthCharged(), 4);
  EXPECT_EQ(lf.workCharged(), 5);
}

TEST(LeaderForest, MergeRejectsOutOfRangeElementIds) {
  // An id past the forest has to fail typed instead of reading out of
  // bounds.
  LeaderForest plain(4);
  EXPECT_THROW(plain.merge(0, 4), std::out_of_range);
  EXPECT_THROW(plain.merge(7, 1), std::out_of_range);
  EXPECT_EQ(plain.numSets(), 4u);  // the rejected merges changed nothing
  EXPECT_EQ(plain.depthCharged(), 0);
}

TEST(LeaderForest, UnionBySizeBoundsTotalWork) {
  // Classic bound: total merge work is O(n log n).
  const std::size_t n = 1024;
  LeaderForest lf(n);
  for (std::size_t span = 1; span < n; span *= 2)
    for (std::size_t i = 0; i + span < n; i += 2 * span)
      lf.merge(static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(i + span));
  EXPECT_EQ(lf.numSets(), 1u);
  EXPECT_LE(lf.workCharged(), static_cast<long>(n) * 10);
}

}  // namespace
}  // namespace mpcspan
