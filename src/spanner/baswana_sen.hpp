// Baswana–Sen [BS07]: the classical (2k-1)-spanner of expected size
// O(k * n^{1+1/k}) for weighted graphs, used by the paper both as the
// baseline (it needs Theta(k) rounds, which the paper's algorithms beat
// exponentially) and as the black-box inner algorithm of Section 3.
//
// Instantiated on the ClusterEngine as a single epoch of k-1 growth
// iterations at probability n^{-1/k} with no contraction, followed by
// Phase 2.
#pragma once

#include "graph/graph.hpp"
#include "spanner/engine.hpp"
#include "spanner/types.hpp"

namespace mpcspan {

struct BaswanaSenParams {
  std::uint32_t k = 4;
  std::uint64_t seed = 1;
};

/// The Baswana-Sen schedule: one epoch of k-1 growth iterations at
/// n^{-1/k}, no contraction. Empty for k <= 1.
std::vector<EpochSpec> baswanaSenSchedule(std::size_t n, std::uint32_t k);

/// Builds a (2k-1)-spanner. For k == 1 the spanner is the whole graph.
SpannerResult buildBaswanaSen(const Graph& g, const BaswanaSenParams& params);

/// Shared helper: the "whole graph" result used by every algorithm at k==1.
SpannerResult identitySpanner(const Graph& g, const char* algorithm);

}  // namespace mpcspan
