// The query plane: adapter bit-equality against the wrapped structures,
// TieredOracle fall-through semantics and counters, and concurrent mixed
// query/warm stress over the full stack (run under TSan in CI).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include "apsp/oracle.hpp"
#include "apsp/sketches.hpp"
#include "graph/builder.hpp"
#include "graph/connectivity.hpp"
#include "graph/distance.hpp"
#include "graph/generators.hpp"
#include "query/adapters.hpp"
#include "query/build.hpp"
#include "query/tiered.hpp"
#include "runtime/thread_pool.hpp"
#include "spanner/baswana_sen.hpp"

namespace mpcspan {
namespace {

using query::DistanceProvider;
using query::ExactDistanceProvider;
using query::kNoAnswer;
using query::SketchDistanceProvider;
using query::SpannerOracleProvider;
using query::TieredOracle;

Graph testGraph(std::size_t n = 150, std::size_t m = 600,
                std::uint64_t seed = 3) {
  Rng rng(seed);
  return gnmRandom(n, m, rng, {WeightModel::kUniform, 50.0}, /*connected=*/true);
}

// A graph with two components, to exercise kInfDist paths.
Graph splitGraph() {
  GraphBuilder b(8);
  b.addEdge(0, 1, 1.0);
  b.addEdge(1, 2, 2.0);
  b.addEdge(2, 3, 1.5);
  b.addEdge(4, 5, 1.0);
  b.addEdge(5, 6, 3.0);
  b.addEdge(6, 7, 1.0);
  return b.build();
}

// --- Adapter bit-equality: every adapter must forward answers unchanged. ---

TEST(Adapters, ExactMatchesDijkstraBitwise) {
  const Graph g = splitGraph();
  ExactDistanceProvider p(g);
  EXPECT_EQ(p.numVertices(), g.numVertices());
  EXPECT_EQ(p.stretchBound(), 1.0);
  for (VertexId u = 0; u < g.numVertices(); ++u) {
    const auto row = dijkstra(g, u);
    for (VertexId v = 0; v < g.numVertices(); ++v)
      EXPECT_EQ(p.query(u, v), row[v]) << u << "," << v;
  }
}

TEST(Adapters, ExactMemoryWordsCountsTheCsrBytes) {
  const Graph g = testGraph();
  const std::size_t m = g.numEdges(), n = g.numVertices();
  const std::size_t bytes = 2 * m * sizeof(Incidence) + m * sizeof(Edge) +
                            (n + 1) * sizeof(std::size_t);
  EXPECT_EQ(ExactDistanceProvider(g).memoryWords() * 8, bytes);
}

TEST(Adapters, SketchMatchesUnderlyingSketchesBitwise) {
  const Graph g = splitGraph();
  const auto sk = std::make_shared<const DistanceSketches>(
      g, SketchParams{.k = 2, .seed = 5});
  SketchDistanceProvider p(sk);
  EXPECT_EQ(p.stretchBound(), sk->stretchBound());
  for (VertexId u = 0; u < g.numVertices(); ++u)
    for (VertexId v = 0; v < g.numVertices(); ++v)
      EXPECT_EQ(p.query(u, v), sk->query(u, v)) << u << "," << v;
}

TEST(Adapters, SketchSweepOnRandomGraph) {
  const Graph g = testGraph();
  const auto sk = std::make_shared<const DistanceSketches>(
      g, SketchParams{.k = 3, .seed = 7});
  SketchDistanceProvider p(sk, /*stretchOverride=*/12.5);
  EXPECT_EQ(p.stretchBound(), 12.5);
  for (VertexId u = 0; u < g.numVertices(); u += 7)
    for (VertexId v = 0; v < g.numVertices(); ++v)
      EXPECT_EQ(p.query(u, v), sk->query(u, v));
}

TEST(Adapters, SpannerOracleMatchesSpannerDijkstra) {
  const Graph g = testGraph();
  auto spanner = buildBaswanaSen(g, {.k = 3, .seed = 2});
  const auto oracle = std::make_shared<const SpannerDistanceOracle>(
      g, std::move(spanner), /*cacheSources=*/8);
  SpannerOracleProvider p(oracle);
  for (VertexId u = 0; u < g.numVertices(); u += 11) {
    const auto row = dijkstra(oracle->spannerGraph(), u);
    for (VertexId v = 0; v < g.numVertices(); ++v) {
      const Weight expect = u == v ? 0.0 : row[v];
      EXPECT_EQ(p.query(u, v), expect) << u << "," << v;
      EXPECT_EQ(p.tryQuery(u, v), expect);  // kCompute never declines
    }
  }
}

TEST(Adapters, CachedOnlyDeclinesColdAndAnswersWarm) {
  const Graph g = testGraph();
  auto spanner = buildBaswanaSen(g, {.k = 3, .seed = 2});
  const auto oracle = std::make_shared<SpannerDistanceOracle>(
      g, std::move(spanner), /*cacheSources=*/4);
  SpannerOracleProvider p(
      std::shared_ptr<const SpannerDistanceOracle>(oracle),
      SpannerOracleProvider::Mode::kCachedOnly);
  EXPECT_EQ(p.tryQuery(3, 9), kNoAnswer);  // nothing warm yet
  EXPECT_EQ(p.tryQuery(3, 3), 0.0);        // u == v answered without a row

  runtime::ThreadPool pool(2);
  oracle->warm({3}, pool);
  const auto row = dijkstra(oracle->spannerGraph(), 3);
  EXPECT_EQ(p.tryQuery(3, 9), row[9]);
  EXPECT_EQ(p.tryQuery(9, 3), kNoAnswer);  // source 9 still cold
  // query() (as opposed to tryQuery) must still answer by computing.
  EXPECT_EQ(p.query(9, 3), row[9]);
}

TEST(Adapters, QueryBatchMatchesQuery) {
  const Graph g = splitGraph();
  ExactDistanceProvider p(g);
  std::vector<query::QueryPair> pairs = {{0, 3}, {0, 7}, {4, 7}, {2, 2}};
  std::vector<Weight> out(pairs.size());
  p.queryBatch(pairs, out);
  for (std::size_t i = 0; i < pairs.size(); ++i)
    EXPECT_EQ(out[i], p.query(pairs[i].first, pairs[i].second));
  std::vector<Weight> tooSmall(2);
  EXPECT_THROW(p.queryBatch(pairs, tooSmall), std::invalid_argument);
}

// --- TieredOracle semantics. ---

/// Scripted provider for pinning tier fall-through behaviour.
class FakeProvider final : public DistanceProvider {
 public:
  FakeProvider(std::string name, Weight answer, std::size_t n = 4)
      : name_(std::move(name)), answer_(answer), n_(n) {}
  std::string name() const override { return name_; }
  std::size_t numVertices() const override { return n_; }
  Weight query(VertexId, VertexId) const override {
    return answer_ == kNoAnswer ? kInfDist : answer_;
  }
  Weight tryQuery(VertexId, VertexId) const override {
    ++calls;
    return answer_;
  }
  double stretchBound() const override { return 2.0; }
  std::size_t memoryWords() const override { return 10; }

  mutable std::atomic<int> calls{0};

 private:
  std::string name_;
  Weight answer_;
  std::size_t n_;
};

TEST(TieredOracle, FirstAnsweringTierWins) {
  auto a = std::make_shared<FakeProvider>("a", 5.0);
  auto b = std::make_shared<FakeProvider>("b", 1.0);
  TieredOracle t({a, b});
  EXPECT_EQ(t.query(0, 1), 5.0);
  EXPECT_EQ(a->calls.load(), 1);
  EXPECT_EQ(b->calls.load(), 0);
}

TEST(TieredOracle, DeclineAndInfFallThrough) {
  auto declines = std::make_shared<FakeProvider>("declines", kNoAnswer);
  auto inf = std::make_shared<FakeProvider>("inf", kInfDist);
  auto answers = std::make_shared<FakeProvider>("answers", 7.0);
  TieredOracle t({declines, inf, answers});
  EXPECT_EQ(t.query(0, 1), 7.0);  // kNoAnswer and non-final inf both fall through
  EXPECT_EQ(declines->calls.load(), 1);
  EXPECT_EQ(inf->calls.load(), 1);
  EXPECT_EQ(answers->calls.load(), 1);
}

TEST(TieredOracle, FinalTierInfinityIsAuthoritative) {
  auto inf = std::make_shared<FakeProvider>("inf", kInfDist);
  TieredOracle t({std::make_shared<FakeProvider>("declines", kNoAnswer), inf});
  EXPECT_EQ(t.query(0, 1), kInfDist);
  const auto stats = t.stats();
  EXPECT_EQ(stats[1].hits, 1u);  // accepted, not fallen through
}

TEST(TieredOracle, CountersAddUp) {
  auto a = std::make_shared<FakeProvider>("a", kNoAnswer);
  auto b = std::make_shared<FakeProvider>("b", 3.0);
  TieredOracle t({a, b});
  for (int i = 0; i < 10; ++i) t.query(0, 1);
  auto stats = t.stats();
  EXPECT_EQ(stats[0].attempts, 10u);
  EXPECT_EQ(stats[0].hits, 0u);
  EXPECT_EQ(stats[1].attempts, 10u);
  EXPECT_EQ(stats[1].hits, 10u);
  t.resetStats();
  stats = t.stats();
  EXPECT_EQ(stats[0].attempts, 0u);
  EXPECT_EQ(stats[1].hits, 0u);
}

TEST(TieredOracle, ValidatesConstruction) {
  EXPECT_THROW(TieredOracle({}), std::invalid_argument);
  EXPECT_THROW(
      TieredOracle({std::make_shared<FakeProvider>("a", 1.0, 4), nullptr}),
      std::invalid_argument);
  EXPECT_THROW(TieredOracle({std::make_shared<FakeProvider>("a", 1.0, 4),
                             std::make_shared<FakeProvider>("b", 1.0, 5)}),
               std::invalid_argument);
}

TEST(TieredOracle, DisconnectedPairFallsToExactInfinity) {
  const Graph g = splitGraph();
  query::BuildPlan plan;
  plan.algo = "baswana-sen";
  plan.k = 2;
  plan.sketchK = 2;
  const auto artifact = query::buildArtifact(g, plan);
  const auto plane = query::makeQueryPlane(artifact);
  // 0 and 4 are in different components: sketches return inf (non-final ->
  // fall through), spanner-cache declines, exact answers inf.
  EXPECT_EQ(plane.tiered->query(0, 4), kInfDist);
  const auto stats = plane.tiered->stats();
  EXPECT_EQ(stats.back().hits, 1u);
  // Connected pair: answered exactly-or-stretched, never below the true
  // distance, and the attempts column sums to queries so far per tier.
  const Weight est = plane.tiered->query(0, 3);
  const Weight exact = dijkstraPair(g, 0, 3);
  EXPECT_GE(est, exact - 1e-12);
  EXPECT_LE(est, artifact.composedStretch * exact + 1e-9);
  EXPECT_EQ(plane.tiered->stats()[0].attempts, 2u);
}

// --- Oracle warm/overflow semantics (satellite). ---

TEST(Oracle, WarmReturnsRowsActuallyComputed) {
  const Graph g = testGraph();
  auto spanner = buildBaswanaSen(g, {.k = 3, .seed = 4});
  SpannerDistanceOracle oracle(g, std::move(spanner), /*cacheSources=*/8);
  runtime::ThreadPool pool(2);

  EXPECT_EQ(oracle.warm({1, 2, 3}, pool), 3u);
  EXPECT_EQ(oracle.cachedRows(), 3u);
  // Re-warming the same sources computes nothing new.
  EXPECT_EQ(oracle.warm({1, 2, 3}, pool), 0u);
  // Duplicates are deduplicated before counting.
  EXPECT_EQ(oracle.warm({4, 4, 4, 5}, pool), 2u);
}

TEST(Oracle, WarmOverflowIsTruncatedToCapacity) {
  const Graph g = testGraph();
  auto spanner = buildBaswanaSen(g, {.k = 3, .seed = 4});
  SpannerDistanceOracle oracle(g, std::move(spanner), /*cacheSources=*/4);
  runtime::ThreadPool pool(2);

  std::vector<VertexId> sources;
  for (VertexId v = 0; v < 20; ++v) sources.push_back(v);
  // The cache can never retain more than capacity rows, so warm refuses to
  // compute more than that.
  EXPECT_EQ(oracle.warm(sources, pool), 4u);
  EXPECT_LE(oracle.cachedRows(), 4u);
  // Queries for unwarmed sources still work (lazy compute path).
  EXPECT_EQ(oracle.query(10, 11), dijkstra(oracle.spannerGraph(), 10)[11]);
  EXPECT_LE(oracle.cachedRows(), 4u);
}

// --- Concurrency: mixed query/warm over the full stack. ---

TEST(QueryPlane, ConcurrentQueriesWhileWarming) {
  const Graph g = testGraph(120, 480, 9);
  query::BuildPlan plan;
  plan.algo = "baswana-sen";
  plan.k = 2;
  plan.sketchK = 2;
  plan.cacheSources = 6;  // small: constant eviction churn under load
  const auto artifact = query::buildArtifact(g, plan);
  const auto plane = query::makeQueryPlane(artifact);
  const std::size_t n = g.numVertices();

  // Reference answers computed single-threaded before the storm.
  std::vector<query::QueryPair> pairs;
  std::vector<Weight> expected;
  Rng rng(21);
  for (int i = 0; i < 400; ++i) {
    const auto u = static_cast<VertexId>(rng.next(n));
    const auto v = static_cast<VertexId>(rng.next(n));
    pairs.push_back({u, v});
    expected.push_back(plane.tiered->query(u, v));
  }
  plane.tiered->resetStats();

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  // 4 query threads replaying the reference workload...
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([&, t] {
      for (std::size_t rep = 0; rep < 3; ++rep)
        for (std::size_t i = t; i < pairs.size(); i += 4) {
          const Weight w = plane.tiered->query(pairs[i].first, pairs[i].second);
          if (w != expected[i]) mismatches.fetch_add(1);
        }
    });
  // ...while one warmer cycles rows through the tiny cache.
  threads.emplace_back([&] {
    runtime::ThreadPool pool(2);
    for (VertexId base = 0; base < 60; base += 3)
      plane.oracle->warm({base, static_cast<VertexId>(base + 1),
                          static_cast<VertexId>(base + 2)},
                         pool);
  });
  for (auto& th : threads) th.join();

  // On a connected graph the sketch tier answers every pair, and sketches
  // are immutable — so concurrent answers must be bit-identical to the
  // quiescent reference no matter what the warmer does underneath.
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_LE(plane.oracle->cachedRows(), 6u);
  // Every query attempted the first tier: 4 threads x 3 reps x 100 pairs.
  const auto stats = plane.tiered->stats();
  EXPECT_EQ(stats[0].attempts, 4u * 3u * 100u);
}

TEST(QueryPlane, ConcurrentFallThroughUnderWarmChurn) {
  // A two-tier stack (spanner-cache -> exact) where *which* tier answers
  // depends on the racing warm state: every answer must still land in
  // [exact, stretchBound * exact]. Exercises the cached-only decline path
  // and LRU eviction concurrently (TSan leg).
  const Graph g = testGraph(100, 400, 15);
  auto spannerResult = buildBaswanaSen(g, {.k = 2, .seed = 4});
  const double stretch = spannerResult.stretchBound;
  const auto oracle = std::make_shared<SpannerDistanceOracle>(
      g, std::move(spannerResult), /*cacheSources=*/5);
  TieredOracle tiered(
      {std::make_shared<SpannerOracleProvider>(
           std::shared_ptr<const SpannerDistanceOracle>(oracle),
           SpannerOracleProvider::Mode::kCachedOnly),
       std::make_shared<ExactDistanceProvider>(g)});

  const std::size_t n = g.numVertices();
  std::vector<std::vector<Weight>> exact;
  for (VertexId u = 0; u < 16; ++u) exact.push_back(dijkstra(g, u));

  std::atomic<int> violations{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([&, t] {
      Rng rng(100 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < 800; ++i) {
        const auto u = static_cast<VertexId>(rng.next(16));
        const auto v = static_cast<VertexId>(rng.next(n));
        const Weight w = tiered.query(u, v);
        const Weight d = exact[u][v];
        if (w < d - 1e-9 || w > stretch * d + 1e-9) violations.fetch_add(1);
      }
    });
  threads.emplace_back([&] {
    runtime::ThreadPool pool(2);
    for (int round = 0; round < 6; ++round)
      oracle->warm({static_cast<VertexId>(round % 16),
                    static_cast<VertexId>((round + 5) % 16),
                    static_cast<VertexId>((round + 11) % 16)},
                   pool);
  });
  for (auto& th : threads) th.join();

  EXPECT_EQ(violations.load(), 0);
  EXPECT_LE(oracle->cachedRows(), 5u);
  const auto stats = tiered.stats();
  EXPECT_EQ(stats[0].attempts, 4u * 800u);
  // Both tiers answered some queries (warm rows existed part of the time).
  EXPECT_GT(stats[1].hits, 0u);
}

}  // namespace
}  // namespace mpcspan
