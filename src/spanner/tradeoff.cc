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
  t = tradeoffIterations(k, t);
  // ClusterEngine's radius bookkeeping, replayed over the schedule alone:
  // a growth iteration adds 2 * rSuper + 1 (Lemma 5.8), a contraction
  // records r and makes it the new super-node radius.
  // The epoch count does not depend on n.
  const std::size_t epochs = tradeoffSchedule(2, k, t).size();
  double r = 0, rSuper = 0, contractedSum = 0;
  for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
    for (std::uint32_t j = 0; j < t; ++j) r += 2.0 * rSuper + 1.0;
    contractedSum += r;
    rSuper = r;
  }
  return 4.0 * r + 2.0 + 2.0 * contractedSum;
}

SpannerResult buildTradeoffSpanner(const Graph& g, const TradeoffParams& params) {
  if (params.k <= 1) return identitySpanner(g, "tradeoff");

  const std::uint32_t t = tradeoffIterations(params.k, params.t);

  ClusterEngine::Options opts;
  opts.seed = params.seed;
  opts.policy = params.policy;
  ClusterEngine engine(g, params.k, opts);
  SpannerResult result = engine.run(tradeoffSchedule(g.numVertices(), params.k, t));
  result.algorithm = "tradeoff";
  result.t = t;
  return result;
}

}  // namespace mpcspan
