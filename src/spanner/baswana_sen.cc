#include "spanner/baswana_sen.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace mpcspan {

SpannerResult identitySpanner(const Graph& g, const char* algorithm) {
  SpannerResult r;
  r.algorithm = algorithm;
  r.k = 1;
  r.inputVertices = g.numVertices();
  r.inputEdges = g.numEdges();
  r.edges.resize(g.numEdges());
  std::iota(r.edges.begin(), r.edges.end(), 0);
  r.stretchBound = 1.0;
  return r;
}

std::vector<EpochSpec> baswanaSenSchedule(std::size_t n, std::uint32_t k) {
  if (k <= 1) return {};
  const double p = std::pow(static_cast<double>(std::max<std::size_t>(n, 2)),
                            -1.0 / static_cast<double>(k));
  EpochSpec epoch;
  epoch.iterations = k - 1;
  epoch.prob = [p](std::size_t) { return p; };
  epoch.contractAfter = false;
  return {epoch};
}

SpannerResult buildBaswanaSen(const Graph& g, const BaswanaSenParams& params) {
  if (params.k <= 1) return identitySpanner(g, "baswana-sen");

  ClusterEngine engine(g, params.k, {.seed = params.seed});
  // Without contractions the radius recurrence gives r = k-1, and the
  // schedule certifies the classical 2k-1.
  SpannerResult result = engine.run(baswanaSenSchedule(g.numVertices(), params.k));
  result.algorithm = "baswana-sen";
  result.t = params.k;
  return result;
}

}  // namespace mpcspan
