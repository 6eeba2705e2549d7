// The query plane: adapter bit-equality against the wrapped structures,
// TieredOracle fall-through semantics and counters, and concurrent queries
// over the full stack (run under TSan in CI).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include "apsp/sketches.hpp"
#include "graph/builder.hpp"
#include "graph/distance.hpp"
#include "graph/generators.hpp"
#include "query/adapters.hpp"
#include "query/build.hpp"
#include "query/tiered.hpp"

namespace mpcspan {
namespace {

using query::DistanceProvider;
using query::ExactDistanceProvider;
using query::SketchDistanceProvider;
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

TEST(TieredOracle, NonFinalInfinityFallsThrough) {
  auto inf = std::make_shared<FakeProvider>("inf", kInfDist);
  auto answers = std::make_shared<FakeProvider>("answers", 7.0);
  TieredOracle t({inf, answers});
  EXPECT_EQ(t.query(0, 1), 7.0);
  EXPECT_EQ(inf->calls.load(), 1);
  EXPECT_EQ(answers->calls.load(), 1);
}

TEST(TieredOracle, FinalTierInfinityIsAuthoritative) {
  auto inf = std::make_shared<FakeProvider>("inf", kInfDist);
  TieredOracle t({std::make_shared<FakeProvider>("floor", kInfDist), inf});
  EXPECT_EQ(t.query(0, 1), kInfDist);
  const auto stats = t.stats();
  EXPECT_EQ(stats[0].hits, 0u);  // fell through
  EXPECT_EQ(stats[1].hits, 1u);  // accepted, not fallen through
}

TEST(TieredOracle, CountersAddUp) {
  auto a = std::make_shared<FakeProvider>("a", kInfDist);
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
  // fall through), exact answers inf.
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

// --- Concurrency: many threads on one plane, every tier in play. ---

TEST(QueryPlane, ConcurrentQueriesMatchTheQuiescentReference) {
  // Four threads replay one workload through query() (the sketch floor
  // answers) and through queryBudgeted at an unbounded budget (exact
  // answers) and at budget 0 (the floor again, degraded). Tiers are
  // immutable, so every concurrent answer must be bit-identical to the
  // single-threaded reference, and the relaxed counters must add up.
  const Graph g = testGraph(120, 480, 9);
  query::BuildPlan plan;
  plan.algo = "baswana-sen";
  plan.k = 2;
  plan.sketchK = 2;
  const auto artifact = query::buildArtifact(g, plan);
  const auto plane = query::makeQueryPlane(artifact);
  const std::size_t n = g.numVertices();

  const ExactDistanceProvider exact(g);
  std::vector<query::QueryPair> pairs;
  std::vector<Weight> floorRef, exactRef;
  Rng rng(21);
  for (int i = 0; i < 400; ++i) {
    const auto u = static_cast<VertexId>(rng.next(n));
    const auto v = static_cast<VertexId>(rng.next(n));
    pairs.push_back({u, v});
    floorRef.push_back(plane.tiered->query(u, v));
    exactRef.push_back(exact.query(u, v));
  }
  plane.tiered->resetStats();

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([&, t] {
      for (std::size_t rep = 0; rep < 3; ++rep)
        for (std::size_t i = t; i < pairs.size(); i += 4) {
          const auto [u, v] = pairs[i];
          const query::BudgetedAnswer best =
              plane.tiered->queryBudgeted(u, v, util::DeadlineBudget());
          const query::BudgetedAnswer atFloor =
              plane.tiered->queryBudgeted(u, v, util::DeadlineBudget(0));
          if (plane.tiered->query(u, v) != floorRef[i] ||
              best.dist != exactRef[i] || best.tier != 1 || best.degraded ||
              atFloor.dist != floorRef[i] || atFloor.tier != 0 ||
              !atFloor.degraded)
            mismatches.fetch_add(1);
        }
    });
  for (auto& th : threads) th.join();

  EXPECT_EQ(mismatches.load(), 0);
  // 4 threads x 3 reps x 100 pairs, each run three ways.
  const query::OracleSnapshot snap = plane.tiered->snapshot();
  const std::uint64_t each = 4u * 3u * 100u;
  EXPECT_EQ(snap.queries, 3 * each);
  EXPECT_EQ(snap.degraded, each);
  EXPECT_EQ(snap.tiers[0].attempts, 2 * each);
  EXPECT_EQ(snap.tiers[0].hits, 2 * each);
  EXPECT_EQ(snap.tiers[1].attempts, each);
  EXPECT_EQ(snap.tiers[1].hits, each);
}

}  // namespace
}  // namespace mpcspan
