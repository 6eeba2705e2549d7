#include "apsp/apsp_mpc.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "apsp/oracle.hpp"
#include "graph/distance.hpp"
#include "graph/generators.hpp"
#include "spanner/baswana_sen.hpp"

namespace mpcspan {
namespace {

TEST(Oracle, QueriesMatchSpannerDijkstra) {
  Rng rng(1);
  const Graph g = gnmRandom(200, 1000, rng, {WeightModel::kUniform, 10.0}, true);
  auto spanner = buildBaswanaSen(g, {.k = 3, .seed = 1});
  SpannerDistanceOracle oracle(g, spanner);
  const auto direct = dijkstra(oracle.spannerGraph(), 5);
  for (VertexId v : {0u, 3u, 50u, 199u})
    EXPECT_DOUBLE_EQ(oracle.query(5, v), direct[v]);
  EXPECT_DOUBLE_EQ(oracle.query(7, 7), 0.0);
}

TEST(Oracle, PairQueriesAreBitIdenticalToSourceRows) {
  // query() runs the bidirectional pair search on H, distancesFrom() a
  // one-to-all Dijkstra on H; integer weights rule out float ties, so the
  // two agree bit for bit on every pair.
  Rng rng(2);
  const Graph g = gnmRandom(150, 600, rng, {WeightModel::kInteger, 20.0}, true);
  auto spanner = buildBaswanaSen(g, {.k = 2, .seed = 2});
  const SpannerDistanceOracle oracle(g, std::move(spanner));
  for (VertexId u = 0; u < g.numVertices(); u += 13) {
    const std::vector<Weight> row = oracle.distancesFrom(u);
    EXPECT_EQ(row, dijkstra(oracle.spannerGraph(), u));
    for (VertexId v = 0; v < g.numVertices(); ++v)
      EXPECT_EQ(oracle.query(u, v), row[v]) << u << "," << v;
  }
}

TEST(Oracle, SpannerWordsIsTwiceEdges) {
  Rng rng(3);
  const Graph g = gnmRandom(100, 300, rng, {}, true);
  auto spanner = buildBaswanaSen(g, {.k = 2, .seed = 3});
  const std::size_t edges = spanner.edges.size();
  SpannerDistanceOracle oracle(g, std::move(spanner));
  EXPECT_EQ(oracle.spannerWords(), 2 * edges);
}

TEST(MpcApsp, AutoParametersAndFit) {
  Rng rng(4);
  const Graph g = gnmRandom(1024, 8192, rng, {WeightModel::kUniform, 50.0}, true);
  const auto r = runMpcApsp(g, {.seed = 1});
  EXPECT_EQ(r.kUsed, 10u);  // ceil(log2 1024)
  EXPECT_GE(r.tUsed, 1u);
  // Corollary 1.4's whole point: the spanner fits one near-linear machine.
  EXPECT_TRUE(r.fitsOneMachine)
      << "spanner words " << r.oracle.spannerWords() << " vs budget "
      << r.machineMemoryWords;
  EXPECT_GT(r.roundsNearLinear, 0l);
}

TEST(MpcApsp, ApproximationWithinCertifiedBound) {
  Rng rng(5);
  const Graph g = gnmRandom(500, 4000, rng, {WeightModel::kUniform, 20.0}, true);
  auto r = runMpcApsp(g, {.seed = 2});
  const auto exact = dijkstra(g, 42);
  const auto approx = r.oracle.distancesFrom(42);
  double worst = 1.0;
  for (VertexId v = 0; v < g.numVertices(); ++v) {
    if (v == 42 || exact[v] == kInfDist || exact[v] == 0) continue;
    ASSERT_NE(approx[v], kInfDist);
    EXPECT_GE(approx[v] + 1e-9, exact[v]);
    worst = std::max(worst, approx[v] / exact[v]);
  }
  EXPECT_LE(worst, r.approxCertified + 1e-6);
}

TEST(MpcApsp, RoundsAreSublogarithmicShape) {
  // Rounds should scale with t*log(k)/log(t+1), not with k ~ log n: going
  // from n=256 to n=4096 must grow rounds by far less than log n doubles.
  Rng rng(6);
  const Graph small = gnmRandom(256, 1024, rng, {}, true);
  const Graph large = gnmRandom(4096, 16384, rng, {}, true);
  const auto rs = runMpcApsp(small, {.seed = 3});
  const auto rl = runMpcApsp(large, {.seed = 3});
  EXPECT_LT(rl.roundsNearLinear, 3 * rs.roundsNearLinear);
}

TEST(MpcApsp, TOverrideRespected) {
  Rng rng(7);
  const Graph g = gnmRandom(400, 2000, rng, {WeightModel::kUniform, 4.0}, true);
  const auto r = runMpcApsp(g, {.t = 1, .seed = 4});
  EXPECT_EQ(r.tUsed, 1u);
  // t=1 gives approximation exponent log2(3) on log n.
  const double log2n = std::log2(400.0);
  EXPECT_NEAR(r.approxTheoretical, std::pow(log2n, std::log2(3.0)), 1e-6);
}

}  // namespace
}  // namespace mpcspan
