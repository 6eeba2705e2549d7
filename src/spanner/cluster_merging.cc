#include "spanner/cluster_merging.hpp"

#include "spanner/baswana_sen.hpp"

namespace mpcspan {

SpannerResult buildClusterMergingSpanner(const Graph& g,
                                         const ClusterMergingParams& params) {
  if (params.k <= 1) return identitySpanner(g, "cluster-merging");
  // Section 4 is exactly the Section 5 schedule at t=1: with singleton
  // epochs, "cluster-vertex" growth on the quotient graph *is* whole-cluster
  // merging (each super-node is the previous epoch's contracted cluster),
  // and the probabilities n^{-2^{i-1}/k} match (t+1)^{i-1} = 2^{i-1}.
  ClusterEngine engine(g, params.k, {.seed = params.seed});
  SpannerResult result = engine.run(tradeoffSchedule(g.numVertices(), params.k, 1));
  result.algorithm = "cluster-merging";
  result.t = 1;
  return result;
}

}  // namespace mpcspan
