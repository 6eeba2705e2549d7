// Section 3: the near-optimal two-phase cluster-contraction algorithm.
// Runs t = ceil(sqrt(k)) Baswana–Sen iterations at probability n^{-1/k},
// contracts the clustering into a super-graph, then runs a full
// (2t'-1)-spanner construction (Baswana–Sen as a black box, t' = t) on the
// contracted graph with probability derived from the *contracted* size.
// O(sqrt(k)) rounds, stretch O(k), size O(sqrt(k) * n^{1+1/k}).
//
// Note: the paper's Section 3 text sets "t' = sqrt(n)" in two places; that
// is a typo for sqrt(k) (only sqrt(k) yields the claimed O(sqrt k) rounds
// and O(k)=O(t*t') stretch, and the surrounding text uses k). We implement
// t = t' = ceil(sqrt(k)).
#pragma once

#include "graph/graph.hpp"
#include "spanner/engine.hpp"
#include "spanner/types.hpp"

namespace mpcspan {

struct SqrtKParams {
  std::uint32_t k = 9;
  std::uint64_t seed = 1;
};

/// The Section 3 schedule: t = ceil(sqrt k) iterations at n^{-1/k} and a
/// contraction, then t-1 iterations at n-hat^{-1/t}, where n-hat is the
/// contracted size. Empty for k <= 1.
std::vector<EpochSpec> sqrtKSchedule(std::size_t n, std::uint32_t k);

SpannerResult buildSqrtKSpanner(const Graph& g, const SqrtKParams& params);

}  // namespace mpcspan
