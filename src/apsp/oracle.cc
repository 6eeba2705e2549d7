#include "apsp/oracle.hpp"

#include "graph/connectivity.hpp"
#include "graph/distance.hpp"

namespace mpcspan {

SpannerDistanceOracle::SpannerDistanceOracle(const Graph& g, SpannerResult spanner)
    : spanner_(std::move(spanner)), h_(subgraph(g, spanner_.edges)) {}

std::vector<Weight> SpannerDistanceOracle::distancesFrom(VertexId src) const {
  return dijkstra(h_, src);
}

Weight SpannerDistanceOracle::query(VertexId u, VertexId v) const {
  return dijkstraPair(h_, u, v);
}

}  // namespace mpcspan
