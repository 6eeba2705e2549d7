#include "spanner/tradeoff.hpp"

#include <algorithm>
#include <cmath>

#include "spanner/baswana_sen.hpp"

namespace mpcspan {

double tradeoffStretchExponent(std::uint32_t t) {
  const double td = static_cast<double>(t == 0 ? 1 : t);
  return std::log(2.0 * td + 1.0) / std::log(td + 1.0);
}

double tradeoffTheoreticalStretch(std::uint32_t k, std::uint32_t t) {
  return std::pow(static_cast<double>(k), tradeoffStretchExponent(t));
}

std::uint32_t tradeoffIterations(std::uint32_t k, std::uint32_t t) {
  if (t != 0) return t;
  return static_cast<std::uint32_t>(
      std::max(1.0, std::ceil(std::log2(static_cast<double>(std::max(k, 1u))))));
}

double tradeoffCertifiedStretch(std::uint32_t k, std::uint32_t t) {
  if (k <= 1) return 1.0;
  // The epoch count, hence the bound, does not depend on n.
  return certifySchedule(tradeoffSchedule(2, k, tradeoffIterations(k, t))).stretchBound;
}

SpannerResult buildTradeoffSpanner(const Graph& g, const TradeoffParams& params) {
  if (params.k <= 1) return identitySpanner(g, "tradeoff");

  const std::uint32_t t = tradeoffIterations(params.k, params.t);

  ClusterEngine engine(g, params.k, {.seed = params.seed, .policy = params.policy});
  SpannerResult result = engine.run(tradeoffSchedule(g.numVertices(), params.k, t));
  result.algorithm = "tradeoff";
  result.t = t;
  return result;
}

}  // namespace mpcspan
