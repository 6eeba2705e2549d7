#include "spanner/sqrtk.hpp"

#include <algorithm>
#include <cmath>

#include "spanner/baswana_sen.hpp"

namespace mpcspan {

std::vector<EpochSpec> sqrtKSchedule(std::size_t n, std::uint32_t k) {
  if (k <= 1) return {};
  const auto t = static_cast<std::uint32_t>(
      std::max(1.0, std::ceil(std::sqrt(static_cast<double>(k)))));
  const double p1 = std::pow(static_cast<double>(std::max<std::size_t>(n, 2)),
                             -1.0 / static_cast<double>(k));

  // Epoch 1: t iterations of [BS07] at n^{-1/k}, then contract (the
  // super-graph G-hat of Section 3).
  EpochSpec first;
  first.iterations = t;
  first.prob = [p1](std::size_t) { return p1; };
  first.contractAfter = true;

  // Epoch 2: a (2t-1)-spanner on G-hat — t-1 iterations at probability
  // n-hat^{-1/t}, where n-hat is the contracted size (known only at run
  // time, hence the callback form).
  EpochSpec second;
  second.iterations = t > 1 ? t - 1 : 1;
  second.prob = [t](std::size_t nHat) {
    return std::pow(static_cast<double>(std::max<std::size_t>(nHat, 2)),
                    -1.0 / static_cast<double>(t));
  };
  second.contractAfter = false;
  return {first, second};
}

SpannerResult buildSqrtKSpanner(const Graph& g, const SqrtKParams& params) {
  if (params.k <= 1) return identitySpanner(g, "sqrtk");
  const std::vector<EpochSpec> schedule = sqrtKSchedule(g.numVertices(), params.k);
  ClusterEngine engine(g, params.k, {.seed = params.seed});
  SpannerResult result = engine.run(schedule);
  result.algorithm = "sqrtk";
  result.t = schedule.front().iterations;
  return result;
}

}  // namespace mpcspan
