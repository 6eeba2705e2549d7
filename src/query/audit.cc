#include "query/audit.hpp"

#include <algorithm>
#include <stdexcept>

#include "graph/distance.hpp"

namespace mpcspan::query {

AuditReport auditEnvelope(const Graph& g, std::span<const QueryPair> pairs,
                          std::span<const Weight> answers, double stretch,
                          std::size_t maxPairs) {
  if (pairs.size() != answers.size())
    throw std::invalid_argument("auditEnvelope: pairs/answers length mismatch");
  AuditReport report;
  double sumRatio = 0.0;
  for (std::size_t i = 0; i < pairs.size() && report.audited < maxPairs; ++i) {
    const auto [u, v] = pairs[i];
    if (u == v) continue;
    const Weight exact = dijkstra(g, u)[v];
    if (exact == kInfDist || exact <= 0) continue;
    const double ratio = answers[i] / exact;
    report.maxRatio = std::max(report.maxRatio, ratio);
    sumRatio += ratio;
    if (ratio < 1.0 - 1e-9 || ratio > stretch + 1e-9)
      report.violations.push_back({u, v, answers[i], exact});
    ++report.audited;
  }
  report.meanRatio =
      report.audited ? sumRatio / static_cast<double>(report.audited) : 0.0;
  return report;
}

}  // namespace mpcspan::query
