// Envelope audit: checks served distance estimates against exact Dijkstra
// on the original graph and reports every pair whose ratio leaves the
// certified stretch envelope [1, stretch].
//
// This used to be an inline loop in `mpcspan query --audit`; it moved here
// so tests can pin the exit-nonzero-and-print-the-offender contract without
// shelling out, and so the serving daemon's client path can reuse it.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "query/provider.hpp"

namespace mpcspan::query {

/// One pair whose answer left the envelope — everything a human needs to
/// reproduce the violation.
struct AuditViolation {
  VertexId u = 0;
  VertexId v = 0;
  Weight got = 0;    // served estimate
  Weight exact = 0;  // Dijkstra on the original graph
};

struct AuditReport {
  std::size_t audited = 0;  // pairs actually compared (after skips)
  double maxRatio = 0.0;
  double meanRatio = 0.0;
  std::vector<AuditViolation> violations;

  bool ok() const { return violations.empty(); }
};

/// Compares answers[i] against dijkstra(g, u)[v] for up to maxPairs
/// auditable pairs (u == v and disconnected/zero-distance pairs are skipped
/// — their ratio is undefined). The reference is the one-to-all search, not
/// dijkstraPair, so an exact-tier answer is never checked against the code
/// that produced it. A pair violates when its ratio falls below
/// 1 or above `stretch`, both with 1e-9 relative slack for float noise.
/// pairs and answers must be the same length.
AuditReport auditEnvelope(const Graph& g, std::span<const QueryPair> pairs,
                          std::span<const Weight> answers, double stretch,
                          std::size_t maxPairs = 200);

}  // namespace mpcspan::query
