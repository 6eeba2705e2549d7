#include "spanner/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <utility>
#include <vector>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "spanner/baswana_sen.hpp"
#include "spanner/tradeoff.hpp"
#include "spanner/verify.hpp"

namespace mpcspan {
namespace {

TEST(HashCoinPolicy, DeterministicAndRespectsActivity) {
  std::vector<char> active{1, 0, 1, 1, 0, 1};
  const auto a = HashCoinPolicy::draw(active, 0.5, 42, 7);
  const auto b = HashCoinPolicy::draw(active, 0.5, 42, 7);
  EXPECT_EQ(a, b);
  for (std::size_t i = 0; i < active.size(); ++i)
    if (!active[i]) {
      EXPECT_EQ(a[i], 0);
    }
}

TEST(HashCoinPolicy, ProbabilityExtremes) {
  std::vector<char> active(100, 1);
  const auto none = HashCoinPolicy::draw(active, 0.0, 1, 1);
  const auto all = HashCoinPolicy::draw(active, 1.0, 1, 1);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(none[i], 0);
    EXPECT_EQ(all[i], 1);
  }
}

TEST(HashCoinPolicy, EmpiricalRate) {
  std::vector<char> active(20000, 1);
  const auto s = HashCoinPolicy::draw(active, 0.25, 9, 3);
  std::size_t hits = 0;
  for (char c : s) hits += c != 0;
  EXPECT_NEAR(static_cast<double>(hits) / 20000.0, 0.25, 0.02);
}

TEST(HashCoinPolicy, DifferentDrawKeysDiffer) {
  std::vector<char> active(1000, 1);
  const auto a = HashCoinPolicy::draw(active, 0.5, 42, 1);
  const auto b = HashCoinPolicy::draw(active, 0.5, 42, 2);
  EXPECT_NE(a, b);
}

TEST(TradeoffSchedule, EpochCountMatchesFormula) {
  for (std::uint32_t k : {2u, 4u, 8u, 16u, 32u, 64u}) {
    for (std::uint32_t t : {1u, 2u, 3u, 5u, 8u}) {
      const auto sched = tradeoffSchedule(1000, k, t);
      const auto expected = static_cast<std::size_t>(std::ceil(
          std::log(static_cast<double>(k)) / std::log(static_cast<double>(t) + 1.0) -
          1e-9));
      EXPECT_EQ(sched.size(), std::max<std::size_t>(expected, 1))
          << "k=" << k << " t=" << t;
      for (const auto& e : sched) {
        EXPECT_EQ(e.iterations, t);
        EXPECT_TRUE(e.contractAfter);
      }
    }
  }
}

TEST(TradeoffSchedule, ProbabilitiesDecayDoublyExponentially) {
  const auto sched = tradeoffSchedule(100000, 16, 1);
  ASSERT_EQ(sched.size(), 4u);
  const double n = 100000;
  for (std::size_t i = 0; i < sched.size(); ++i) {
    const double expected = std::pow(n, -std::pow(2.0, static_cast<double>(i)) / 16.0);
    EXPECT_NEAR(sched[i].prob(0), expected, 1e-12);
  }
}

TEST(TradeoffSchedule, KOneIsEmpty) {
  EXPECT_TRUE(tradeoffSchedule(100, 1, 1).empty());
}

TEST(Engine, KOneReturnsWholeGraph) {
  Rng rng(1);
  const Graph g = gnmRandom(50, 200, rng);
  const auto r = buildBaswanaSen(g, {.k = 1, .seed = 1});
  EXPECT_EQ(r.edges.size(), g.numEdges());
  EXPECT_DOUBLE_EQ(r.stretchBound, 1.0);
}

TEST(Engine, RejectsKZero) {
  Rng rng(2);
  const Graph g = cycleGraph(5, rng);
  EXPECT_THROW(ClusterEngine(g, 0, {}), std::invalid_argument);
}

TEST(Engine, SpannerEdgesAreValidAndUnique) {
  Rng rng(3);
  const Graph g = gnmRandom(300, 1500, rng, {WeightModel::kUniform, 10.0}, true);
  TradeoffParams p;
  p.k = 6;
  p.t = 2;
  p.seed = 5;
  const auto r = buildTradeoffSpanner(g, p);
  for (std::size_t i = 0; i < r.edges.size(); ++i) {
    ASSERT_LT(r.edges[i], g.numEdges());
    if (i > 0) {
      ASSERT_LT(r.edges[i - 1], r.edges[i]);
    }
  }
}

TEST(Engine, DeterministicForSameSeed) {
  Rng rng(4);
  const Graph g = gnmRandom(200, 900, rng, {WeightModel::kUniform, 5.0}, true);
  TradeoffParams p;
  p.k = 8;
  p.t = 2;
  p.seed = 99;
  const auto a = buildTradeoffSpanner(g, p);
  const auto b = buildTradeoffSpanner(g, p);
  EXPECT_EQ(a.edges, b.edges);
  EXPECT_EQ(a.iterations, b.iterations);
}

TEST(Engine, DifferentSeedsUsuallyDiffer) {
  Rng rng(5);
  const Graph g = gnmRandom(200, 900, rng, {WeightModel::kUniform, 5.0}, true);
  TradeoffParams p;
  p.k = 8;
  p.t = 2;
  p.seed = 1;
  const auto a = buildTradeoffSpanner(g, p);
  p.seed = 2;
  const auto b = buildTradeoffSpanner(g, p);
  EXPECT_NE(a.edges, b.edges);
}

TEST(Engine, RadiusRecurrenceMatchesCorollary59) {
  // r^(i) = ((2t+1)^i - 1)/2 after i full epochs (Corollary 5.9).
  Rng rng(6);
  const Graph g = gnmRandom(400, 2400, rng, {}, true);
  for (std::uint32_t t : {1u, 2u, 3u}) {
    TradeoffParams p;
    p.k = 16;
    p.t = t;
    p.seed = 3;
    const auto r = buildTradeoffSpanner(g, p);
    const double l = static_cast<double>(r.epochs);
    const double expected = (std::pow(2.0 * t + 1.0, l) - 1.0) / 2.0;
    EXPECT_DOUBLE_EQ(r.finalRadius, expected) << "t=" << t;
  }
}

TEST(Engine, CostLedgerCountsIterations) {
  Rng rng(7);
  const Graph g = gnmRandom(100, 400, rng, {}, true);
  TradeoffParams p;
  p.k = 8;
  p.t = 2;
  p.seed = 1;
  const auto r = buildTradeoffSpanner(g, p);
  EXPECT_EQ(r.cost.invocations(Prim::kSample), static_cast<long>(r.iterations));
  EXPECT_EQ(r.cost.invocations(Prim::kContraction), static_cast<long>(r.epochs));
  EXPECT_GE(r.cost.invocations(Prim::kFindMin), static_cast<long>(r.iterations));
}

TEST(Engine, ClusterCountsAreNonIncreasing) {
  Rng rng(8);
  const Graph g = gnmRandom(500, 2500, rng, {}, true);
  TradeoffParams p;
  p.k = 16;
  p.t = 1;
  p.seed = 11;
  const auto r = buildTradeoffSpanner(g, p);
  for (std::size_t i = 1; i < r.supernodesPerEpoch.size(); ++i)
    EXPECT_LE(r.supernodesPerEpoch[i], r.supernodesPerEpoch[i - 1]);
}

TEST(Engine, EmptyGraphAndSingleVertex) {
  const Graph empty = graphFromEdges(0, {});
  const auto r0 = buildBaswanaSen(empty, {.k = 3, .seed = 1});
  EXPECT_TRUE(r0.edges.empty());
  const Graph single = graphFromEdges(1, {});
  const auto r1 = buildBaswanaSen(single, {.k = 3, .seed = 1});
  EXPECT_TRUE(r1.edges.empty());
}

TEST(Engine, TwoVertexGraph) {
  const Graph g = graphFromEdges(2, {{0, 1, 3.0}});
  const auto r = buildBaswanaSen(g, {.k = 2, .seed = 1});
  // The only edge must survive (spanners preserve connectivity).
  EXPECT_EQ(r.edges.size(), 1u);
}

TEST(Engine, DisconnectedGraphIsHandled) {
  // Two disjoint cycles.
  GraphBuilder b(12);
  for (int i = 0; i < 6; ++i) b.addEdge(i, (i + 1) % 6, 1.0);
  for (int i = 0; i < 6; ++i) b.addEdge(6 + i, 6 + (i + 1) % 6, 1.0);
  const Graph g = b.build();
  TradeoffParams p;
  p.k = 3;
  p.t = 1;
  p.seed = 2;
  const auto r = buildTradeoffSpanner(g, p);
  const auto report = verifySpanner(g, r.edges, r.stretchBound);
  EXPECT_TRUE(report.spanning);
  EXPECT_EQ(report.violations, 0u);
}

/// Samples exactly the roots listed, whatever p says.
class FixedSample final : public SamplingPolicy {
 public:
  explicit FixedSample(std::vector<VertexId> roots) : roots_(std::move(roots)) {}
  std::vector<char> choose(
      const std::vector<char>& rootActive, double, std::uint64_t,
      const std::function<IterPlanStats(const std::vector<char>&)>&,
      SpannerResult::RepetitionStats&) override {
    std::vector<char> sampled(rootActive.size(), 0);
    for (const VertexId r : roots_)
      if (r < rootActive.size()) sampled[r] = rootActive[r];
    return sampled;
  }

 private:
  std::vector<VertexId> roots_;
};

TEST(Engine, ContractionKeepsTheLightestParallelSuperEdge) {
  // Sampling roots 0 and 2 grows clusters {0,1} and {2,3}; contraction
  // (Step C) must keep only the lightest of the parallel crossing edges
  // (1,3; w=2) and discard the heavier one (0,2; w=5) — without it,
  // Phase 2 would add both, one per original endpoint.
  GraphBuilder b(4);
  b.addEdge(0, 1, 1.0);
  b.addEdge(2, 3, 1.0);
  b.addEdge(0, 2, 5.0);
  b.addEdge(1, 3, 2.0);
  const Graph g = b.build();
  FixedSample policy({0, 2});
  ClusterEngine::Options opts;
  opts.policy = &policy;
  ClusterEngine engine(g, /*k=*/3, opts);
  EpochSpec epoch;
  epoch.iterations = 1;
  epoch.prob = [](std::size_t) { return 0.5; };
  epoch.contractAfter = true;
  const SpannerResult r = engine.run({epoch});
  std::vector<Weight> kept;
  for (const EdgeId id : r.edges) kept.push_back(g.edge(id).w);
  std::sort(kept.begin(), kept.end());
  EXPECT_EQ(kept, (std::vector<Weight>{1.0, 1.0, 2.0}));
}

}  // namespace
}  // namespace mpcspan
