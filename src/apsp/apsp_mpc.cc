#include "apsp/apsp_mpc.hpp"

#include <cmath>

#include "spanner/tradeoff.hpp"

namespace mpcspan {

MpcApspResult runMpcApsp(const Graph& g, const MpcApspParams& params) {
  const std::size_t n = std::max<std::size_t>(g.numVertices(), 2);
  const double log2n = std::max(2.0, std::log2(static_cast<double>(n)));

  TradeoffParams tp;
  tp.k = static_cast<std::uint32_t>(std::ceil(log2n));
  tp.t = params.t != 0
             ? params.t
             : static_cast<std::uint32_t>(std::max(1.0, std::ceil(std::log2(log2n))));
  tp.seed = params.seed;
  SpannerResult spanner = buildTradeoffSpanner(g, tp);
  spanner.algorithm = "apsp-mpc";
  // Shipping the spanner to one machine is a single constant-round step in
  // the near-linear regime.
  spanner.cost.charge(Prim::kBroadcast);

  const std::uint32_t kUsed = tp.k;
  const std::uint32_t tUsed = tp.t;
  const long rounds = spanner.cost.nearLinearRounds();
  const auto memWords = static_cast<std::size_t>(
      params.machineMemoryFactor * static_cast<double>(n) * log2n);
  const double certified = spanner.stretchBound;
  const bool fits = 2 * spanner.edges.size() <= memWords;

  MpcApspResult out{
      SpannerDistanceOracle(g, std::move(spanner)),
      kUsed,
      tUsed,
      rounds,
      memWords,
      fits,
      std::pow(log2n, tradeoffStretchExponent(tUsed)),
      certified,
  };
  return out;
}

}  // namespace mpcspan
