// Corollary 1.5: O(log^s n)-approximate weighted APSP in the Congested
// Clique. Build the Theorem 8.1 spanner with k = ceil(log2 n) and
// t = O(log log n), let every node learn the whole spanner via Lenzen
// routing (ceil(2|E_S|/(n-1)) + O(1) rounds — 2 words per edge), then each
// node runs Dijkstra locally: the same SpannerDistanceOracle the MPC
// application (apsp/apsp_mpc.hpp) answers from.
#pragma once

#include "apsp/oracle.hpp"
#include "graph/graph.hpp"

namespace mpcspan {

struct CcApspParams {
  std::uint32_t k = 0;  // 0 selects ceil(log2 n)
  std::uint32_t t = 0;  // 0 selects ceil(log2 log2 n)
  std::uint64_t seed = 1;
  /// Lanes of the round-engine pool (0 = runtime default); output is
  /// identical for every value.
  std::size_t threads = 0;
};

struct CcApspResult {
  /// The collected spanner; distancesFrom(src) is exactly what every clique
  /// node computes locally.
  SpannerDistanceOracle oracle;
  long spannerRounds = 0;   // clique rounds of the construction
  long collectRounds = 0;   // Lenzen collection of the spanner
  long totalRounds = 0;
  std::uint32_t kUsed = 0;
  std::uint32_t tUsed = 0;
  double approxBound = 0;   // the spanner's certified stretch bound
};

CcApspResult runCcApsp(const Graph& g, const CcApspParams& params);

}  // namespace mpcspan
