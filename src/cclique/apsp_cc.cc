#include "cclique/apsp_cc.hpp"

#include <algorithm>
#include <cmath>

#include "cclique/clique.hpp"
#include "cclique/spanner_cc.hpp"

namespace mpcspan {

CcApspResult runCcApsp(const Graph& g, const CcApspParams& params) {
  const std::size_t n = std::max<std::size_t>(g.numVertices(), 2);
  const std::uint32_t kUsed =
      params.k != 0 ? params.k
                    : static_cast<std::uint32_t>(
                          std::max(2.0, std::ceil(std::log2(static_cast<double>(n)))));
  const double loglog = std::log2(std::max(2.0, std::log2(static_cast<double>(n))));
  const std::uint32_t tUsed =
      params.t != 0 ? params.t
                    : static_cast<std::uint32_t>(std::max(1.0, std::ceil(loglog)));

  CcSpannerParams sp;
  sp.k = kUsed;
  sp.t = tUsed;
  sp.seed = params.seed;
  sp.threads = params.threads;
  SpannerResult spanner = buildCcSpanner(g, sp);
  const long spannerRounds = spanner.cost.cliqueRounds();
  const double approxBound = spanner.stretchBound;

  // Collection: every node learns the spanner (2 words per edge) at n-1
  // incoming words per round.
  CongestedClique clique(g.numVertices() == 0 ? 1 : g.numVertices(),
                         params.threads);
  const auto collectRounds =
      static_cast<long>(clique.collectToAll(2 * spanner.edges.size()));
  return CcApspResult{SpannerDistanceOracle(g, std::move(spanner)),
                      spannerRounds,
                      collectRounds,
                      spannerRounds + collectRounds,
                      kUsed,
                      tUsed,
                      approxBound};
}

}  // namespace mpcspan
