// The query plane: adapter bit-equality against the wrapped structures,
// the two-rung walk (counters, budget admission, the floor's authoritative
// infinity), and concurrent queries over the full stack (run under TSan in
// CI).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "apsp/sketches.hpp"
#include "graph/builder.hpp"
#include "graph/connectivity.hpp"
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
  ExactDistanceProvider p(std::make_shared<const Graph>(g));
  EXPECT_EQ(p.numVertices(), g.numVertices());
  EXPECT_EQ(p.stretchBound(), 1.0);
  for (VertexId u = 0; u < g.numVertices(); ++u) {
    const auto row = dijkstra(g, u);
    for (VertexId v = 0; v < g.numVertices(); ++v)
      EXPECT_EQ(p.query(u, v), row[v]) << u << "," << v;
  }
}

TEST(Adapters, SketchMatchesUnderlyingSketchesBitwise) {
  const Graph g = splitGraph();
  const auto sk = std::make_shared<const DistanceSketches>(
      g, SketchParams{.k = 2, .seed = 5});
  SketchDistanceProvider p(sk, sk->stretchBound());
  EXPECT_EQ(p.stretchBound(), sk->stretchBound());
  for (VertexId u = 0; u < g.numVertices(); ++u)
    for (VertexId v = 0; v < g.numVertices(); ++v)
      EXPECT_EQ(p.query(u, v), sk->query(u, v)) << u << "," << v;
}

TEST(Adapters, SketchSweepOnRandomGraph) {
  const Graph g = testGraph();
  const auto sk = std::make_shared<const DistanceSketches>(
      g, SketchParams{.k = 3, .seed = 7});
  SketchDistanceProvider p(sk, /*stretch=*/12.5);
  EXPECT_EQ(p.stretchBound(), 12.5);
  for (VertexId u = 0; u < g.numVertices(); u += 7)
    for (VertexId v = 0; v < g.numVertices(); ++v)
      EXPECT_EQ(p.query(u, v), sk->query(u, v));
}

// --- TieredOracle semantics. ---

/// Scripted provider for pinning the walk's behaviour.
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

  mutable std::atomic<int> calls{0};

 private:
  std::string name_;
  Weight answer_;
  std::size_t n_;
};

TEST(TieredOracle, FinalTierInfinityIsAuthoritative) {
  auto floor = std::make_shared<FakeProvider>("floor", 5.0);
  auto inf = std::make_shared<FakeProvider>("inf", kInfDist);
  TieredOracle t(floor, inf);
  const query::BudgetedAnswer a = t.queryBudgeted(0, 1, util::DeadlineBudget());
  EXPECT_EQ(a.dist, kInfDist);
  EXPECT_EQ(a.tier, 1);
  EXPECT_EQ(floor->calls.load(), 0);  // nothing falls through to the floor
  const query::OracleSnapshot snap = t.snapshot();
  EXPECT_EQ(snap.tiers[0].hits, 0u);
  EXPECT_EQ(snap.tiers[1].hits, 1u);
}

TEST(TieredOracle, CountersAddUp) {
  auto a = std::make_shared<FakeProvider>("a", 9.0);
  auto b = std::make_shared<FakeProvider>("b", 3.0);
  TieredOracle t(a, b);
  for (int i = 0; i < 10; ++i) t.queryBudgeted(0, 1, util::DeadlineBudget());
  for (int i = 0; i < 4; ++i) t.queryBudgeted(0, 1, util::DeadlineBudget(0));
  query::OracleSnapshot snap = t.snapshot();
  EXPECT_EQ(snap.tiers[0].name, "a");
  EXPECT_EQ(snap.tiers[0].attempts, 4u);
  EXPECT_EQ(snap.tiers[0].hits, 4u);
  EXPECT_EQ(snap.tiers[1].name, "b");
  EXPECT_EQ(snap.tiers[1].attempts, 10u);
  EXPECT_EQ(snap.tiers[1].hits, 10u);
  EXPECT_EQ(snap.queries, 14u);
  EXPECT_EQ(snap.degraded, 4u);
  t.resetStats();
  snap = t.snapshot();
  EXPECT_EQ(snap.tiers[0].attempts, 0u);
  EXPECT_EQ(snap.tiers[1].hits, 0u);
  EXPECT_EQ(snap.queries, 0u);
  EXPECT_EQ(snap.degraded, 0u);
}

TEST(TieredOracle, ValidatesConstruction) {
  EXPECT_THROW(TieredOracle(std::make_shared<FakeProvider>("a", 1.0, 4), nullptr),
               std::invalid_argument);
  EXPECT_THROW(TieredOracle(nullptr, std::make_shared<FakeProvider>("a", 1.0, 4)),
               std::invalid_argument);
  EXPECT_THROW(TieredOracle(std::make_shared<FakeProvider>("a", 1.0, 4),
                            std::make_shared<FakeProvider>("b", 1.0, 5)),
               std::invalid_argument);
}

// --- Budget admission: a skipped tier's estimate recovers. ---

/// A tier whose latency the test scripts: call i sleeps delayOf(i).
class DelayedProvider final : public DistanceProvider {
 public:
  explicit DelayedProvider(
      std::function<std::chrono::microseconds(int)> delayOf)
      : delayOf_(std::move(delayOf)) {}
  std::string name() const override { return "delayed"; }
  std::size_t numVertices() const override { return 4; }
  Weight query(VertexId, VertexId) const override {
    const auto d = delayOf_(calls.fetch_add(1));
    if (d.count() > 0) std::this_thread::sleep_for(d);
    return 1.0;
  }
  double stretchBound() const override { return 1.0; }

  mutable std::atomic<int> calls{0};

 private:
  std::function<std::chrono::microseconds(int)> delayOf_;
};

TEST(TieredOracle, SlowFirstSampleDoesNotLockATierOut) {
  // One 20 ms first run, then instant answers, under a 5 ms budget: the
  // slow sample makes the next queries skip the tier, but each skip decays
  // its estimate (by 1/64), so the tier is back after about 64 ln 4 = 89
  // skips and, once its fast runs have pulled the estimate down, stays in.
  auto slowOnce = std::make_shared<DelayedProvider>([](int call) {
    return std::chrono::microseconds(call == 0 ? 20000 : 0);
  });
  TieredOracle t(std::make_shared<FakeProvider>("floor", 9.0), slowOnce);
  ASSERT_FALSE(t.queryBudgeted(0, 1, util::DeadlineBudget(5)).degraded);
  int readmittedAt = -1;
  int degradedAfter = 0;
  for (int q = 1; q <= 600; ++q) {
    const query::BudgetedAnswer a = t.queryBudgeted(0, 1, util::DeadlineBudget(5));
    if (readmittedAt < 0) {
      if (!a.degraded) readmittedAt = q;
    } else if (a.degraded) {
      ++degradedAfter;
    }
  }
  ASSERT_GT(readmittedAt, 1);  // the slow sample did lock it out for a while
  // A sleep that overshoots 20 ms only adds 64 ln(overshoot) skips.
  EXPECT_LE(readmittedAt, 300);
  EXPECT_EQ(degradedAfter, 0);
}

TEST(TieredOracle, PersistentlySlowTierStaysSkipped) {
  // Every run takes 10 ms against a 2 ms budget: the tier is re-probed now
  // and then (that is what lets a recovered tier back in) but skipped for
  // almost every query.
  auto slow = std::make_shared<DelayedProvider>(
      [](int) { return std::chrono::microseconds(10000); });
  TieredOracle t(std::make_shared<FakeProvider>("floor", 9.0), slow);
  constexpr int kQueries = 600;
  int degraded = 0;
  for (int q = 0; q < kQueries; ++q)
    degraded += t.queryBudgeted(0, 1, util::DeadlineBudget(2)).degraded;
  EXPECT_GE(degraded, kQueries * 9 / 10);
  EXPECT_LT(slow->calls.load(), kQueries / 10);
  EXPECT_GT(slow->calls.load(), 1);  // re-probed, not locked out for good
}

TEST(TieredOracle, SpentAndUnboundedBudgetsIgnoreTheEstimate) {
  // Deadline 0 always answers from the floor without running the tier, and
  // an unbounded budget always runs it, whatever its estimate says.
  auto slow = std::make_shared<DelayedProvider>(
      [](int) { return std::chrono::microseconds(2000); });
  TieredOracle t(std::make_shared<FakeProvider>("floor", 9.0), slow);
  for (int q = 0; q < 50; ++q) {
    const query::BudgetedAnswer a = t.queryBudgeted(0, 1, util::DeadlineBudget(0));
    EXPECT_TRUE(a.degraded);
    EXPECT_EQ(a.tier, 0);
  }
  EXPECT_EQ(slow->calls.load(), 0);
  for (int q = 0; q < 5; ++q) {
    const query::BudgetedAnswer a = t.queryBudgeted(0, 1, util::DeadlineBudget());
    EXPECT_FALSE(a.degraded);
    EXPECT_EQ(a.tier, 1);
  }
  EXPECT_EQ(slow->calls.load(), 5);
  EXPECT_EQ(t.snapshot().degraded, 50u);
}

// --- The floor's kInfDist is authoritative: it means "disconnected". ---

/// A seeded forest-like graph of many tiny components (1-6 vertices each):
/// a random spanning tree per component plus one extra edge in the larger
/// ones, uniform weights in [1, 50].
Graph tinyComponents(std::size_t components, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::size_t> sizes(components);
  std::size_t n = 0;
  for (std::size_t& s : sizes) n += s = 1 + rng.next(6);
  GraphBuilder b(n);
  const auto weight = [&] { return rng.uniform(1.0, 50.0); };
  std::size_t first = 0;
  for (const std::size_t s : sizes) {
    for (std::size_t i = 1; i < s; ++i)
      b.addEdge(static_cast<VertexId>(first + i),
                static_cast<VertexId>(first + rng.next(i)), weight());
    if (s >= 4)
      b.addEdge(static_cast<VertexId>(first),
                static_cast<VertexId>(first + s - 1), weight());
    first += s;
  }
  return b.build();
}

TEST(TieredOracle, FloorInfinityMeansDisconnected) {
  // At deadline 0 the sketch floor answers every pair: kInfDist exactly
  // for the cross-component pairs and a finite answer inside the composed
  // envelope otherwise, so a floor infinity never needs exact to confirm
  // it. An unbounded budget answers from exact, kInfDist included.
  for (const std::uint32_t sketchK : {2u, 3u})
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      const Graph g = tinyComponents(60, seed);
      query::BuildPlan plan;
      plan.algo = "baswana-sen";
      plan.k = 2;
      plan.sketchK = sketchK;
      plan.sketchSeed = seed;
      const auto artifact = query::buildArtifact(g, plan);
      const auto plane = query::makeQueryPlane(artifact);
      const std::vector<VertexId> comp = componentLabels(g);
      const std::size_t n = g.numVertices();
      std::size_t crossPairs = 0;
      for (VertexId u = 0; u < n; ++u) {
        const std::vector<Weight> row = dijkstra(g, u);
        for (VertexId v = 0; v < n; ++v) {
          const Weight floor =
              plane.tiered->queryBudgeted(u, v, util::DeadlineBudget(0)).dist;
          const Weight exact =
              plane.tiered->queryBudgeted(u, v, util::DeadlineBudget()).dist;
          ASSERT_EQ(exact, row[v]) << u << "," << v;
          if (comp[u] != comp[v]) {
            ++crossPairs;
            ASSERT_EQ(floor, kInfDist) << u << "," << v;
            continue;
          }
          ASSERT_NE(floor, kInfDist) << "k=" << sketchK << " seed=" << seed
                                     << " pair " << u << "," << v;
          EXPECT_GE(floor, row[v] - 1e-9);
          EXPECT_LE(floor, artifact.composedStretch * row[v] + 1e-9);
        }
      }
      EXPECT_GT(crossPairs, n * n / 2);
    }
}

// --- Concurrency: many threads on one plane, every tier in play. ---

TEST(QueryPlane, ConcurrentQueriesMatchTheQuiescentReference) {
  // Four threads replay one workload through queryBudgeted at an unbounded
  // budget (exact answers) and at budget 0 (the floor answers, degraded).
  // Tiers are immutable, so every concurrent answer must be bit-identical
  // to the single-threaded reference, and the relaxed counters must add
  // up.
  const Graph g = testGraph(120, 480, 9);
  query::BuildPlan plan;
  plan.algo = "baswana-sen";
  plan.k = 2;
  plan.sketchK = 2;
  const auto artifact = query::buildArtifact(g, plan);
  const auto plane = query::makeQueryPlane(artifact);
  const std::size_t n = g.numVertices();

  const ExactDistanceProvider exact(std::make_shared<const Graph>(g));
  std::vector<query::QueryPair> pairs;
  std::vector<Weight> floorRef, exactRef;
  Rng rng(21);
  for (int i = 0; i < 400; ++i) {
    const auto u = static_cast<VertexId>(rng.next(n));
    const auto v = static_cast<VertexId>(rng.next(n));
    pairs.push_back({u, v});
    floorRef.push_back(
        plane.tiered->queryBudgeted(u, v, util::DeadlineBudget(0)).dist);
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
          if (best.dist != exactRef[i] || best.tier != 1 || best.degraded ||
              atFloor.dist != floorRef[i] || atFloor.tier != 0 ||
              !atFloor.degraded)
            mismatches.fetch_add(1);
        }
    });
  for (auto& th : threads) th.join();

  EXPECT_EQ(mismatches.load(), 0);
  // 4 threads x 3 reps x 100 pairs, each run both ways.
  const query::OracleSnapshot snap = plane.tiered->snapshot();
  const std::uint64_t each = 4u * 3u * 100u;
  EXPECT_EQ(snap.queries, 2 * each);
  EXPECT_EQ(snap.degraded, each);
  EXPECT_EQ(snap.tiers[0].attempts, each);
  EXPECT_EQ(snap.tiers[0].hits, each);
  EXPECT_EQ(snap.tiers[1].attempts, each);
  EXPECT_EQ(snap.tiers[1].hits, each);
}

}  // namespace
}  // namespace mpcspan
