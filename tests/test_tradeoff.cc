#include "spanner/tradeoff.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "graph/generators.hpp"
#include "query/build.hpp"
#include "spanner/baswana_sen.hpp"
#include "spanner/verify.hpp"

namespace mpcspan {
namespace {

TEST(Tradeoff, StretchExponentFormula) {
  // s = log(2t+1)/log(t+1): t=1 -> log2(3); t->inf -> 1.
  EXPECT_NEAR(tradeoffStretchExponent(1), std::log2(3.0), 1e-12);
  EXPECT_NEAR(tradeoffStretchExponent(2), std::log(5.0) / std::log(3.0), 1e-12);
  EXPECT_GT(tradeoffStretchExponent(1), tradeoffStretchExponent(2));
  EXPECT_GT(tradeoffStretchExponent(4), tradeoffStretchExponent(16));
  EXPECT_NEAR(tradeoffStretchExponent(1 << 20), 1.0, 0.05);
}

TEST(Tradeoff, OneIterationRuleAndCertifiedBoundForHostAndDist) {
  // tradeoffIterations is the one t = max(1, ceil(log2 k)) rule; the
  // schedule-only certified bound must equal what the host engine
  // certifies, and the distributed build (same schedule, same edges) must
  // use the same t.
  Rng rng(42);
  const Graph g = gnmRandom(120, 900, rng, {WeightModel::kUniform, 20.0}, true);
  for (std::uint32_t k = 2; k <= 16; ++k) {
    const std::uint32_t t = tradeoffIterations(k);
    EXPECT_EQ(t, static_cast<std::uint32_t>(std::max(
                     1.0, std::ceil(std::log2(static_cast<double>(k))))));
    EXPECT_EQ(tradeoffIterations(k, 5), 5u);
    const SpannerResult host = buildTradeoffSpanner(g, {k, 0, 3});
    EXPECT_EQ(host.t, t) << "k=" << k;
    EXPECT_DOUBLE_EQ(tradeoffCertifiedStretch(k), host.stretchBound) << "k=" << k;
    query::BuildPlan plan;
    plan.algo = "dist-tradeoff";
    plan.k = k;
    plan.seed = 3;
    plan.sketchK = 2;
    plan.shards = 1;
    const query::QueryArtifact a = query::buildArtifact(g, plan);
    EXPECT_EQ(a.t, t) << "k=" << k;
    EXPECT_EQ(a.spannerEdges, host.edges) << "k=" << k;
    EXPECT_DOUBLE_EQ(a.spannerStretch, tradeoffTheoreticalStretch(k, t));
  }
  EXPECT_EQ(tradeoffCertifiedStretch(1), 1.0);
  EXPECT_EQ(tradeoffCertifiedStretch(8), 152.0);  // the CLI's k=8 bound
}

TEST(Tradeoff, TheoreticalStretchIsMonotoneInT) {
  for (std::uint32_t k : {16u, 64u}) {
    double prev = tradeoffTheoreticalStretch(k, 1);
    for (std::uint32_t t : {2u, 4u, 8u, 16u}) {
      const double cur = tradeoffTheoreticalStretch(k, t);
      EXPECT_LE(cur, prev + 1e-9) << "k=" << k << " t=" << t;
      prev = cur;
    }
  }
}

TEST(Tradeoff, IterationCountMatchesTheorem) {
  // Total iterations = t * ceil(log k / log(t+1)).
  Rng rng(1);
  const Graph g = gnmRandom(300, 1200, rng, {}, true);
  for (std::uint32_t k : {8u, 16u, 27u}) {
    for (std::uint32_t t : {1u, 2u, 3u, 5u}) {
      TradeoffParams p;
      p.k = k;
      p.t = t;
      p.seed = 1;
      const auto r = buildTradeoffSpanner(g, p);
      const auto l = static_cast<std::size_t>(std::ceil(
          std::log(static_cast<double>(k)) / std::log(static_cast<double>(t) + 1.0) -
          1e-9));
      EXPECT_EQ(r.iterations, t * std::max<std::size_t>(l, 1)) << "k=" << k << " t=" << t;
    }
  }
}

TEST(Tradeoff, DefaultTIsLogK) {
  Rng rng(2);
  const Graph g = gnmRandom(200, 800, rng, {}, true);
  TradeoffParams p;
  p.k = 16;
  p.t = 0;  // auto
  p.seed = 2;
  const auto r = buildTradeoffSpanner(g, p);
  EXPECT_EQ(r.t, 4u);  // ceil(log2 16)
}

class TradeoffAudit
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint32_t>> {};

TEST_P(TradeoffAudit, CertifiedStretchHoldsOnEveryEdge) {
  const auto [k, t] = GetParam();
  Rng rng(k * 131 + t);
  const Graph g = gnmRandom(350, 1800, rng, {WeightModel::kUniform, 30.0}, true);
  TradeoffParams p;
  p.k = k;
  p.t = t;
  p.seed = 17;
  const auto r = buildTradeoffSpanner(g, p);
  const auto report = verifySpanner(g, r.edges, r.stretchBound);
  EXPECT_TRUE(report.spanning);
  EXPECT_EQ(report.violations, 0u)
      << "k=" << k << " t=" << t << " max=" << report.maxEdgeStretch
      << " bound=" << r.stretchBound;
  // Pairwise stretch can never exceed the per-edge bound.
  EXPECT_LE(report.maxPairStretch, r.stretchBound + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    KTGrid, TradeoffAudit,
    ::testing::Combine(::testing::Values(2u, 4u, 8u, 16u),
                       ::testing::Values(1u, 2u, 3u)),
    [](const auto& info) {
      return "k" + std::to_string(std::get<0>(info.param)) + "_t" +
             std::to_string(std::get<1>(info.param));
    });

TEST(Tradeoff, LargeTDegeneratesTowardBaswanaSen) {
  // With t >= k-1 the schedule is one epoch at p = n^{-1/k}: the same
  // cluster process as Baswana-Sen (plus a final contraction).
  Rng rng(3);
  const Graph g = gnmRandom(300, 1500, rng, {}, true);
  TradeoffParams p;
  p.k = 8;
  p.t = 8;
  p.seed = 23;
  const auto r = buildTradeoffSpanner(g, p);
  EXPECT_EQ(r.epochs, 1u);
  EXPECT_EQ(r.iterations, 8u);
}

TEST(Tradeoff, SupernodeDecayFollowsLemma512) {
  // E[supernodes at epoch i] = n^{1-((t+1)^{i-1}-1)/k}; check within a
  // generous multiplicative envelope on a fixed seed.
  Rng rng(4);
  const std::size_t n = 4000;
  const Graph g = gnmRandom(n, 20000, rng, {}, true);
  TradeoffParams p;
  p.k = 8;
  p.t = 2;
  p.seed = 31;
  const auto r = buildTradeoffSpanner(g, p);
  ASSERT_GE(r.supernodesPerEpoch.size(), 2u);
  for (std::size_t i = 1; i < r.supernodesPerEpoch.size(); ++i) {
    const double expected =
        std::pow(static_cast<double>(n),
                 1.0 - (std::pow(3.0, static_cast<double>(i)) - 1.0) / 8.0);
    // Supernodes can only be fewer than the sampling survivors in
    // expectation (exits remove more); allow [0, 4x] envelope.
    EXPECT_LE(static_cast<double>(r.supernodesPerEpoch[i]), 4.0 * expected + 50.0)
        << "epoch " << i;
  }
}

TEST(Tradeoff, GridAndBAFamiliesAudit) {
  Rng rng(5);
  for (Family f : {Family::kGrid, Family::kBarabasiAlbert}) {
    const Graph g = makeFamily(f, 400, 6.0, rng, {WeightModel::kUniform, 10.0});
    TradeoffParams p;
    p.k = 8;
    p.t = 2;
    p.seed = 41;
    const auto r = buildTradeoffSpanner(g, p);
    const auto report = verifySpanner(g, r.edges, r.stretchBound,
                                      {.maxEdgeChecks = 1200, .pairSources = 4});
    EXPECT_TRUE(report.spanning) << familyName(f);
    EXPECT_EQ(report.violations, 0u) << familyName(f);
  }
}

}  // namespace
}  // namespace mpcspan
