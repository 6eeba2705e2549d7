#include "graph/distance.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "graph/builder.hpp"
#include "graph/generators.hpp"

namespace mpcspan {
namespace {

Graph diamond() {
  // 0-1 (1), 0-2 (4), 1-2 (1), 2-3 (1), 1-3 (5)
  GraphBuilder b(4);
  b.addEdge(0, 1, 1.0);
  b.addEdge(0, 2, 4.0);
  b.addEdge(1, 2, 1.0);
  b.addEdge(2, 3, 1.0);
  b.addEdge(1, 3, 5.0);
  return b.build();
}

TEST(Dijkstra, KnownDistances) {
  const Graph g = diamond();
  const auto d = dijkstra(g, 0);
  EXPECT_DOUBLE_EQ(d[0], 0.0);
  EXPECT_DOUBLE_EQ(d[1], 1.0);
  EXPECT_DOUBLE_EQ(d[2], 2.0);  // via 1
  EXPECT_DOUBLE_EQ(d[3], 3.0);  // via 1,2
}

TEST(Dijkstra, UnreachableIsInfinite) {
  GraphBuilder b(3);
  b.addEdge(0, 1, 1.0);
  const auto d = dijkstra(b.build(), 0);
  EXPECT_EQ(d[2], kInfDist);
}

TEST(Dijkstra, BoundedCutsOff) {
  const Graph g = diamond();
  const auto d = dijkstraBounded(g, 0, 2.0);
  EXPECT_DOUBLE_EQ(d[2], 2.0);
  EXPECT_EQ(d[3], kInfDist);
}

TEST(Dijkstra, PairQueryMatchesFull) {
  Rng rng(3);
  const Graph g = gnmRandom(120, 400, rng, {WeightModel::kUniform, 10.0}, true);
  const auto d = dijkstra(g, 5);
  for (VertexId v : {0u, 10u, 60u, 119u})
    EXPECT_EQ(dijkstraPair(g, 5, v), d[v]);
}

// Every ordered pair answered by the bidirectional search must equal the
// one-to-all search bit for bit: real weights (rounding), small integer
// weights (many tied paths), unit weights, and a graph with several
// components (kInfDist across them).
void expectAllPairsMatchDijkstra(const Graph& g) {
  for (VertexId s = 0; s < g.numVertices(); ++s) {
    const auto row = dijkstra(g, s);
    for (VertexId t = 0; t < g.numVertices(); ++t)
      ASSERT_EQ(dijkstraPair(g, s, t), row[t]) << s << "->" << t;
  }
}

TEST(Dijkstra, PairMatchesFullBitwiseUniformWeights) {
  Rng rng(11);
  expectAllPairsMatchDijkstra(
      gnmRandom(150, 450, rng, {WeightModel::kUniform, 10.0}, true));
}

TEST(Dijkstra, PairMatchesFullBitwiseIntegerWeights) {
  Rng rng(12);
  expectAllPairsMatchDijkstra(
      gnmRandom(150, 450, rng, {WeightModel::kInteger, 3.0}, true));
}

TEST(Dijkstra, PairMatchesFullBitwiseUnitWeights) {
  Rng rng(13);
  expectAllPairsMatchDijkstra(gnmRandom(150, 300, rng, {}, true));
}

TEST(Dijkstra, PairMatchesFullBitwiseDisconnected) {
  Rng rng(14);
  const Graph g = gnmRandom(150, 120, rng, {WeightModel::kUniform, 10.0});
  const auto row = dijkstra(g, 0);
  ASSERT_TRUE(std::count(row.begin(), row.end(), kInfDist) > 0);
  expectAllPairsMatchDijkstra(g);
}

TEST(Dijkstra, PairKeepsSearchingPastTheFirstMeeting) {
  // The first path the two sides close is s-a-t (12); the shortest is
  // s-b-c-t (10).
  enum : VertexId { s, a, t, b, c };
  GraphBuilder gb(5);
  gb.addEdge(s, a, 6.0);
  gb.addEdge(a, t, 6.0);
  gb.addEdge(s, b, 3.0);
  gb.addEdge(b, c, 4.0);
  gb.addEdge(c, t, 3.0);
  const Graph g = gb.build();
  EXPECT_EQ(dijkstraPair(g, s, t), 10.0);
  EXPECT_EQ(dijkstraPair(g, t, s), 10.0);
  EXPECT_EQ(dijkstraPair(g, a, b), 9.0);
}

TEST(Dijkstra, PairIgnoresTheFirstVertexSettledByBothSides) {
  // The hub h (4 from s, 4 from t) is the first vertex both sides settle:
  // its two leaves keep the heaps level so the sides alternate. The only
  // shortest path is the direct edge s-t of 6, which h is not on.
  enum : VertexId { s, leaf1, leaf2, h, t };
  GraphBuilder gb(5);
  gb.addEdge(s, h, 4.0);
  gb.addEdge(s, t, 6.0);
  gb.addEdge(leaf1, h, 7.0);
  gb.addEdge(leaf2, h, 7.0);
  gb.addEdge(h, t, 4.0);
  const Graph g = gb.build();
  EXPECT_EQ(dijkstraPair(g, s, t), 6.0);
  EXPECT_EQ(dijkstraPair(g, t, s), 6.0);
}

TEST(Dijkstra, PairBoundIsInclusive) {
  Rng rng(15);
  const Graph g = gnmRandom(80, 240, rng, {WeightModel::kInteger, 5.0}, true);
  for (VertexId s = 0; s < g.numVertices(); s += 7) {
    const auto row = dijkstra(g, s);
    for (VertexId t = 0; t < g.numVertices(); ++t) {
      if (t == s) continue;
      EXPECT_EQ(dijkstraPair(g, s, t, row[t]), row[t]) << s << "->" << t;
      EXPECT_EQ(dijkstraPair(g, s, t, row[t] - 1), kInfDist) << s << "->" << t;
    }
  }
}

TEST(Dijkstra, PairEdgeCases) {
  GraphBuilder b(4);
  b.addEdge(1, 2, 2.0);
  b.addEdge(2, 3, 2.0);
  const Graph g = b.build();
  EXPECT_EQ(dijkstraPair(g, 2, 2), 0.0);
  EXPECT_EQ(dijkstraPair(g, 2, 2, 0.0), 0.0);
  EXPECT_EQ(dijkstraPair(g, 0, 0), 0.0);  // isolated, src == dst
  EXPECT_EQ(dijkstraPair(g, 0, 3), kInfDist);  // isolated src
  EXPECT_EQ(dijkstraPair(g, 3, 0), kInfDist);  // isolated dst
  EXPECT_EQ(dijkstraPair(g, 1, 3), 4.0);
  EXPECT_EQ(dijkstraPair(g, 1, 3, 4.0), 4.0);
  EXPECT_EQ(dijkstraPair(g, 1, 3, 3.5), kInfDist);
}

TEST(Dijkstra, PairQueryRespectsBound) {
  const Graph g = diamond();
  EXPECT_EQ(dijkstraPair(g, 0, 3, 2.0), kInfDist);
  EXPECT_DOUBLE_EQ(dijkstraPair(g, 0, 3, 10.0), 3.0);
  EXPECT_DOUBLE_EQ(dijkstraPair(g, 2, 2), 0.0);
}

TEST(Bfs, HopDistances) {
  Rng rng(4);
  const Graph g = pathGraph(6, rng);
  const auto h = bfsHops(g, 0);
  for (std::uint32_t v = 0; v < 6; ++v) EXPECT_EQ(h[v], v);
}

TEST(Bfs, MatchesDijkstraOnUnweighted) {
  Rng rng(5);
  const Graph g = gnmRandom(200, 600, rng, {}, true);
  const auto h = bfsHops(g, 17);
  const auto d = dijkstra(g, 17);
  for (VertexId v = 0; v < g.numVertices(); ++v) {
    if (h[v] == kInfHops)
      EXPECT_EQ(d[v], kInfDist);
    else
      EXPECT_DOUBLE_EQ(d[v], static_cast<double>(h[v]));
  }
}

TEST(MultiSourceBfs, NearestSourceAndParents) {
  Rng rng(6);
  const Graph g = pathGraph(10, rng);
  const auto ms = multiSourceBfs(g, {0, 9});
  EXPECT_EQ(ms.hops[0], 0u);
  EXPECT_EQ(ms.hops[9], 0u);
  EXPECT_EQ(ms.source[2], 0u);
  EXPECT_EQ(ms.source[8], 9u);
  EXPECT_EQ(ms.hops[4], 4u);
  // Parent pointers walk back to the claimed source.
  VertexId cur = 6;
  while (ms.parentEdge[cur] != kNoEdge) cur = g.opposite(ms.parentEdge[cur], cur);
  EXPECT_EQ(cur, ms.source[6]);
}

TEST(MultiSourceBfs, DepthLimit) {
  Rng rng(7);
  const Graph g = pathGraph(10, rng);
  const auto ms = multiSourceBfs(g, {0}, 3);
  EXPECT_EQ(ms.hops[3], 3u);
  EXPECT_EQ(ms.hops[4], kInfHops);
  EXPECT_EQ(ms.source[4], kNoVertex);
}

TEST(BfsBall, CompleteWhenSmall) {
  Rng rng(8);
  const Graph g = cycleGraph(10, rng);
  const BfsBall ball = bfsBall(g, 0, 10, 100);
  EXPECT_TRUE(ball.complete);
  EXPECT_EQ(ball.vertices.size(), 10u);
}

TEST(BfsBall, CapsAtMaxVertices) {
  Rng rng(9);
  const Graph g = starGraph(100, rng);
  const BfsBall ball = bfsBall(g, 0, 2, 10);
  EXPECT_FALSE(ball.complete);
  EXPECT_LE(ball.vertices.size(), 10u);
}

TEST(BfsBall, RespectsHopLimit) {
  Rng rng(10);
  const Graph g = pathGraph(20, rng);
  const BfsBall ball = bfsBall(g, 0, 3, 1000);
  EXPECT_TRUE(ball.complete);
  EXPECT_EQ(ball.vertices.size(), 4u);  // 0,1,2,3
}

TEST(AllPairs, SymmetricAndConsistent) {
  Rng rng(11);
  const Graph g = gnmRandom(60, 150, rng, {WeightModel::kUniform, 5.0}, true);
  const auto ap = allPairs(g);
  for (VertexId u = 0; u < g.numVertices(); u += 7)
    for (VertexId v = 0; v < g.numVertices(); v += 11) {
      EXPECT_DOUBLE_EQ(ap[u][v], ap[v][u]);
      EXPECT_GE(ap[u][v], 0.0);
    }
  // Triangle inequality on a few triples.
  EXPECT_LE(ap[0][2], ap[0][1] + ap[1][2] + 1e-9);
}

}  // namespace
}  // namespace mpcspan
