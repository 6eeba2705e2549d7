// Section 4: the cluster-merging algorithm — the t=1 extreme of the general
// trade-off. log2(k) epochs; in epoch i clusters are sampled with
// probability n^{-2^{i-1}/k} (doubly-exponentially decreasing), unsampled
// clusters merge whole into sampled neighbours, and the graph contracts
// after every epoch. Stretch O(k^{log2 3}), expected size
// O(n^{1+1/k} log k), O(log k) iterations (Theorem 4.14).
#pragma once

#include "graph/graph.hpp"
#include "spanner/engine.hpp"
#include "spanner/types.hpp"

namespace mpcspan {

struct ClusterMergingParams {
  std::uint32_t k = 8;
  std::uint64_t seed = 1;
};

SpannerResult buildClusterMergingSpanner(const Graph& g,
                                         const ClusterMergingParams& params);

}  // namespace mpcspan
