#include "apsp/sketches.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <stdexcept>

#include "graph/builder.hpp"
#include "graph/distance.hpp"
#include "graph/generators.hpp"
#include "runtime/thread_pool.hpp"
#include "spanner/tradeoff.hpp"

namespace mpcspan {
namespace {

class SketchStretch
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint64_t>> {};

TEST_P(SketchStretch, QueriesWithin2kMinus1) {
  const auto [k, seed] = GetParam();
  Rng rng(seed * 13 + k);
  const Graph g = gnmRandom(300, 1800, rng, {WeightModel::kUniform, 20.0}, true);
  const DistanceSketches sk(g, {.k = k, .seed = seed});
  Rng pick(seed);
  for (int q = 0; q < 40; ++q) {
    const auto u = static_cast<VertexId>(pick.next(g.numVertices()));
    const auto v = static_cast<VertexId>(pick.next(g.numVertices()));
    const Weight exact = dijkstraPair(g, u, v);
    const Weight est = sk.query(u, v);
    if (exact == kInfDist) {
      EXPECT_EQ(est, kInfDist);
      continue;
    }
    EXPECT_GE(est + 1e-9, exact) << "u=" << u << " v=" << v;
    EXPECT_LE(est, sk.stretchBound() * exact + 1e-9)
        << "u=" << u << " v=" << v << " k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(
    KSeeds, SketchStretch,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u),
                       ::testing::Values<std::uint64_t>(1, 2)),
    [](const auto& info) {
      return "k" + std::to_string(std::get<0>(info.param)) + "_s" +
             std::to_string(std::get<1>(info.param));
    });

TEST(Sketches, SelfDistanceIsZero) {
  Rng rng(3);
  const Graph g = gnmRandom(100, 400, rng, {}, true);
  const DistanceSketches sk(g, {.k = 3, .seed = 1});
  for (VertexId v : {0u, 5u, 99u}) EXPECT_DOUBLE_EQ(sk.query(v, v), 0.0);
}

TEST(Sketches, DisconnectedPairsReturnInfinity) {
  GraphBuilder b(6);
  b.addEdge(0, 1, 1.0);
  b.addEdge(1, 2, 1.0);
  b.addEdge(3, 4, 1.0);
  const Graph g = b.build();
  const DistanceSketches sk(g, {.k = 3, .seed = 2});
  EXPECT_EQ(sk.query(0, 4), kInfDist);
  EXPECT_EQ(sk.query(0, 5), kInfDist);
  EXPECT_NE(sk.query(0, 2), kInfDist);
}

TEST(Sketches, KOneIsExactAPSPViaBunches) {
  // k=1: A_0 = V, every bunch holds exact distances to everyone.
  Rng rng(4);
  const Graph g = gnmRandom(80, 320, rng, {WeightModel::kUniform, 5.0}, true);
  const DistanceSketches sk(g, {.k = 1, .seed = 3});
  const auto exact = dijkstra(g, 7);
  for (VertexId v = 0; v < g.numVertices(); ++v)
    EXPECT_NEAR(sk.query(7, v), exact[v], 1e-9);
}

TEST(Sketches, BunchSizeNearTheory) {
  Rng rng(5);
  const std::size_t n = 1000;
  const Graph g = gnmRandom(n, 8000, rng, {WeightModel::kUniform, 9.0}, true);
  const std::uint32_t k = 3;
  const DistanceSketches sk(g, {.k = k, .seed = 4});
  // E[bunch total] = O(k n^{1+1/k}); generous constant 6.
  const double bound = 6.0 * k * std::pow(double(n), 1.0 + 1.0 / double(k));
  EXPECT_LT(static_cast<double>(sk.totalBunchEntries()), bound);
  // Levels shrink geometrically.
  ASSERT_EQ(sk.levelSizes().size(), k);
  EXPECT_EQ(sk.levelSizes()[0], n);
  EXPECT_LT(sk.levelSizes()[2], sk.levelSizes()[0]);
}

TEST(Sketches, SpannerAcceleratedVariantComposesStretch) {
  Rng rng(6);
  const Graph g = gnmRandom(600, 9000, rng, {WeightModel::kUniform, 12.0}, true);
  TradeoffParams tp;
  tp.k = 4;
  tp.t = 2;
  tp.seed = 5;
  const SpannerResult spanner = buildTradeoffSpanner(g, tp);
  const SketchParams sp{.k = 3, .seed = 6};
  const SpannerSketches ss = buildSketchesOnSpanner(g, spanner, sp);
  EXPECT_DOUBLE_EQ(ss.composedStretchBound, 5.0 * spanner.stretchBound);

  Rng pick(7);
  for (int q = 0; q < 30; ++q) {
    const auto u = static_cast<VertexId>(pick.next(g.numVertices()));
    const auto v = static_cast<VertexId>(pick.next(g.numVertices()));
    const Weight exact = dijkstraPair(g, u, v);
    if (exact == kInfDist || exact == 0) continue;
    const Weight est = ss.sketches.query(u, v);
    EXPECT_GE(est + 1e-9, exact);
    EXPECT_LE(est, ss.composedStretchBound * exact + 1e-9);
  }
}

TEST(Sketches, SpannerCutsPreprocessingWork) {
  // The [DN19] point: preprocessing cost scales with the edge count, so a
  // dense graph's sketches are much cheaper on its spanner.
  Rng rng(8);
  const Graph g = gnmRandom(800, 40000, rng, {WeightModel::kUniform, 10.0}, true);
  TradeoffParams tp;
  tp.k = 6;
  tp.t = 0;
  tp.seed = 9;
  const SpannerResult spanner = buildTradeoffSpanner(g, tp);
  ASSERT_LT(spanner.edges.size(), g.numEdges() / 3);

  const SketchParams sp{.k = 3, .seed = 10};
  const DistanceSketches direct(g, sp);
  const SpannerSketches accel = buildSketchesOnSpanner(g, spanner, sp);
  EXPECT_LT(accel.sketches.preprocessingRelaxations(),
            direct.preprocessingRelaxations());
}

template <class T>
std::uint64_t hashRow(std::uint64_t h, const std::vector<T>& row) {
  h = mix64(h ^ row.size());
  for (const T& x : row) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof(T));
    h = mix64(h ^ bits);
  }
  return h;
}

/// Digest of everything an artifact saves of the sketches, the relaxation
/// count included.
std::uint64_t tablesDigest(const SketchTables& t) {
  std::uint64_t h = mix64(mix64(t.k) ^ t.n);
  h = mix64(h ^ t.relaxations);
  for (const auto& row : t.pivotDist) h = hashRow(h, row);
  for (const auto& row : t.pivot) h = hashRow(h, row);
  h = hashRow(h, t.bunchStart);
  h = hashRow(h, t.bunchW);
  h = hashRow(h, t.bunchDist);
  return hashRow(h, t.levelSizes);
}

TEST(Sketches, TablesAreIdenticalAtEveryLaneCount) {
  // Digests frozen from the single-threaded construction that the parallel
  // one replaced. The unit grid ties many shortest paths. k = 1 is exact
  // APSP (n^2 bunch entries, n searches over the whole graph), so it runs
  // on graphs a tenth the size.
  Rng r1(31), r2(32), r3(31), r4(32);
  const Graph gnm = gnmRandom(3000, 60000, r1, {WeightModel::kUniform, 20.0});
  const Graph grid = grid2d(40, 40, r2);
  const Graph gnmSmall = gnmRandom(300, 6000, r3, {WeightModel::kUniform, 20.0});
  const Graph gridSmall = grid2d(20, 20, r4);
  struct Case {
    const char* name;
    const Graph* g;
    std::uint32_t k;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {"gnm300", &gnmSmall, 1, 0xd6f8d805820ac768ull},
      {"gnm3000", &gnm, 2, 0xb756f7e6c29512afull},
      {"gnm3000", &gnm, 3, 0x4331b058e167d47bull},
      {"gnm3000", &gnm, 4, 0xdf368781c758b8baull},
      {"grid20", &gridSmall, 1, 0xa7e2ff64f2a2c52dull},
      {"grid40", &grid, 2, 0x6c952afb24d50070ull},
      {"grid40", &grid, 3, 0x783be56c1e711eadull},
      {"grid40", &grid, 4, 0x796f5e2c97bfe0d6ull},
  };
  for (const Case& c : cases)
    for (std::size_t lanes : {1, 2, 3, 4, 7}) {
      const DistanceSketches sk(*c.g, {.k = c.k, .seed = 7}, lanes);
      EXPECT_EQ(tablesDigest(sk.exportTables()), c.digest)
          << c.name << " k=" << c.k << " lanes=" << lanes;
    }
}

TEST(Sketches, LaneCountBeyondThePoolLimitIsRefused) {
  Rng rng(9);
  const Graph g = gnmRandom(50, 200, rng, {}, true);
  EXPECT_THROW(DistanceSketches(g, {}, runtime::kMaxThreads + 1),
               std::invalid_argument);
}

/// Tables of a small sketch and a vertex whose bunch holds two entries or
/// more, to tamper with.
std::pair<SketchTables, VertexId> tablesWithALongBunch() {
  Rng rng(10);
  const Graph g = gnmRandom(200, 1200, rng, {WeightModel::kUniform, 5.0}, true);
  SketchTables t = DistanceSketches(g, {.k = 3, .seed = 11}, 1).exportTables();
  for (VertexId v = 0; v < t.n; ++v)
    if (t.bunchStart[v + 1] - t.bunchStart[v] >= 2) return {std::move(t), v};
  ADD_FAILURE() << "no bunch with two entries";
  return {std::move(t), 0};
}

TEST(Sketches, AdoptedTablesAreAcceptedUntampered) {
  auto [t, v] = tablesWithALongBunch();
  const SketchTables copy = t;
  const DistanceSketches sk(std::move(t));
  EXPECT_EQ(tablesDigest(sk.tables()), tablesDigest(copy));
}

TEST(Sketches, AdoptedBunchWithASwappedPairIsRejected) {
  auto [t, v] = tablesWithALongBunch();
  const std::size_t j = t.bunchStart[v];
  std::swap(t.bunchW[j], t.bunchW[j + 1]);
  std::swap(t.bunchDist[j], t.bunchDist[j + 1]);
  EXPECT_THROW(DistanceSketches{std::move(t)}, std::invalid_argument);
}

TEST(Sketches, AdoptedBunchWithADuplicateWIsRejected) {
  auto [t, v] = tablesWithALongBunch();
  const std::size_t j = t.bunchStart[v];
  t.bunchW[j + 1] = t.bunchW[j];
  t.bunchDist[j + 1] = t.bunchDist[j];
  EXPECT_THROW(DistanceSketches{std::move(t)}, std::invalid_argument);
}

TEST(Sketches, AdoptedPivotOutOfRangeIsRejected) {
  auto [t, v] = tablesWithALongBunch();
  t.pivot[1][v] = static_cast<VertexId>(t.n);
  EXPECT_THROW(DistanceSketches{std::move(t)}, std::invalid_argument);
}

}  // namespace
}  // namespace mpcspan
