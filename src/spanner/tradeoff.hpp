// Section 5: the general round/stretch trade-off algorithm (Theorem 1.1 /
// Theorem 5.15). Parameterized by t (growth iterations per epoch):
//
//   l = ceil(log k / log(t+1)) epochs; epoch i runs t iterations of
//   cluster-vertex growth at probability n^{-(t+1)^{i-1}/k} on the quotient
//   graph, then contracts. Phase 2 finishes the remaining edges.
//
//   rounds  O(t * log k / log(t+1))
//   stretch O(k^s),  s = log(2t+1)/log(t+1)
//   size    O(n^{1+1/k} * (t + log k)) in expectation
//
// t=1 recovers Section 4 (stretch k^{log2 3}); t=k recovers Baswana–Sen;
// t=log k is the paper's sweet spot (k^{1+o(1)} stretch in O(log^2 k /
// log log k) iterations) used for the APSP application.
#pragma once

#include "graph/graph.hpp"
#include "spanner/engine.hpp"
#include "spanner/types.hpp"

namespace mpcspan {

struct TradeoffParams {
  std::uint32_t k = 8;
  /// Growth iterations per epoch; 0 selects the paper's t = ceil(log2 k).
  std::uint32_t t = 0;
  std::uint64_t seed = 1;
  SamplingPolicy* policy = nullptr;
};

SpannerResult buildTradeoffSpanner(const Graph& g, const TradeoffParams& params);

/// Growth iterations per epoch: an explicit `t`, else the paper's default
/// t = max(1, ceil(log2 k)). The one definition shared by the host engine,
/// the distributed driver, the artifact builder, and the CLI.
std::uint32_t tradeoffIterations(std::uint32_t k, std::uint32_t t = 0);

/// The stretch a tradeoff build with these parameters certifies: the
/// cluster-radius bound 4r + 2 + 2 * sum(r at each contraction), which
/// depends only on the schedule (l epochs of t growth iterations, a
/// contraction after each). It equals buildTradeoffSpanner(...).stretchBound
/// and holds for buildDistributedTradeoff too, which runs the same schedule
/// to the same edge set. 1 for k <= 1 (the identity spanner).
double tradeoffCertifiedStretch(std::uint32_t k, std::uint32_t t = 0);

/// The paper's stretch exponent s = log(2t+1)/log(t+1).
double tradeoffStretchExponent(std::uint32_t t);

/// Theoretical stretch k^s for reporting (the engine additionally certifies
/// an exact run-specific bound in SpannerResult::stretchBound).
double tradeoffTheoreticalStretch(std::uint32_t k, std::uint32_t t);

}  // namespace mpcspan
