// Remaining corners: clique traffic accounting, oracle behaviour on
// disconnected inputs, and format edge cases.
#include <gtest/gtest.h>

#include "apsp/oracle.hpp"
#include "cclique/clique.hpp"
#include "graph/builder.hpp"
#include "graph/distance.hpp"
#include "graph/generators.hpp"
#include "probe_kernels.hpp"
#include "spanner/baswana_sen.hpp"

namespace mpcspan {
namespace {

TEST(CongestedClique, TrafficAccounting) {
  CongestedClique cc(6);
  test_kernels::Outboxes out(6);
  out[0].push_back({1, {9}});
  out[2].push_back({3, {9}});
  test_kernels::scriptedRound(cc.engine(), std::move(out));
  EXPECT_EQ(cc.totalWords(), 2u);
  cc.lenzenRoute(std::vector<std::size_t>(6, 3), std::vector<std::size_t>(6, 3));
  EXPECT_EQ(cc.totalWords(), 2u + 18u);
  cc.broadcastRound();
  EXPECT_EQ(cc.rounds(), 1u + 2u + 1u);
}

TEST(Oracle, DisconnectedQueriesAreInfinite) {
  GraphBuilder b(6);
  b.addEdge(0, 1, 2.0);
  b.addEdge(2, 3, 2.0);
  const Graph g = b.build();
  auto spanner = buildBaswanaSen(g, {.k = 2, .seed = 1});
  SpannerDistanceOracle oracle(g, std::move(spanner));
  EXPECT_EQ(oracle.query(0, 3), kInfDist);
  EXPECT_EQ(oracle.query(4, 5), kInfDist);
  EXPECT_DOUBLE_EQ(oracle.query(0, 1), 2.0);
}

TEST(Oracle, DistancesFromReturnsStableRow) {
  Rng rng(2);
  const Graph g = gnmRandom(60, 200, rng, {}, true);
  auto spanner = buildBaswanaSen(g, {.k = 2, .seed = 2});
  SpannerDistanceOracle oracle(g, std::move(spanner));
  const auto d1 = oracle.distancesFrom(3);
  const auto d2 = oracle.distancesFrom(3);  // cached
  EXPECT_EQ(d1.get(), d2.get());
  EXPECT_DOUBLE_EQ((*d1)[3], 0.0);
  EXPECT_GE(oracle.cacheHits(), 1u);
}

TEST(Generators, MakeFamilyGeometricWeighted) {
  Rng rng(3);
  const Graph g = makeFamily(Family::kGeometric, 400, 8.0, rng,
                             {WeightModel::kUniform, 10.0});
  EXPECT_GT(g.numEdges(), 0u);
  EXPECT_FALSE(g.isUnweighted());  // Euclidean weights
}

TEST(Generators, GnmConnectedAtFullDensityTerminates) {
  // Regression for the fuzz-found hang: connected overlay + m = maxEdges.
  Rng rng(4);
  const Graph g = gnmRandom(12, 66, rng, {}, /*connected=*/true);
  EXPECT_EQ(g.numEdges(), 66u);  // complete graph
}

}  // namespace
}  // namespace mpcspan
