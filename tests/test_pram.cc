#include "pram/pram.hpp"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace mpcspan
