// TieredOracle: the query plane's two-rung ladder and its one walk.
//
// The rungs (makeQueryPlane in build.hpp):
//   tier 0, the floor: Thorup–Zwick sketches, an O(k) lookup within the
//           composed stretch;
//   tier 1, exact:     bidirectional Dijkstra on the input graph.
//
// queryBudgeted is the only walk: exact answers when the budget admits it,
// and the floor answers otherwise. Either rung's kInfDist is authoritative.
// The floor returns kInfDist exactly for disconnected pairs, because
// Thorup–Zwick finds the pivot of the last non-empty level inside the
// pair's own component (pinned by tests/test_query.cc).
//
// Per-tier attempt/latency counters are relaxed atomics; queryBudgeted is
// const and thread-safe whenever both rungs are (the provider contract).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "query/provider.hpp"
#include "util/deadline.hpp"

namespace mpcspan::query {

struct TierStats {
  std::string name;
  std::uint64_t attempts = 0;
  std::uint64_t hits = 0;     // answers accepted from this tier
  std::uint64_t nanos = 0;    // total time spent in this tier's query
};

/// One coherent aggregate of every TieredOracle counter — what the serving
/// daemon's STATS command reports. Reads are relaxed atomics, so
/// snapshotting never blocks or races live queries; the fields are each
/// individually consistent, not a cross-field transaction.
struct OracleSnapshot {
  std::vector<TierStats> tiers;  // floor, then exact
  std::uint64_t queries = 0;     // queryBudgeted() calls
  std::uint64_t degraded = 0;    // ... answered by the floor
};

/// queryBudgeted's result: the estimate plus the certificate that makes a
/// degraded answer principled — which tier answered and the multiplicative
/// stretch bound it guarantees.
struct BudgetedAnswer {
  Weight dist = kInfDist;
  int tier = 0;            // 0 = floor, 1 = exact
  bool degraded = false;   // exact was skipped for budget
  double stretch = 1.0;    // stretchBound() of the answering tier
};

class TieredOracle {
 public:
  /// Throws std::invalid_argument if either rung is null or the two
  /// disagree on numVertices().
  TieredOracle(std::shared_ptr<const DistanceProvider> floor,
               std::shared_ptr<const DistanceProvider> exact);

  /// Deadline-budgeted, accuracy-first query — the one walk. Exact runs
  /// when the budget's remaining time covers its latency estimate (with no
  /// sample yet it is always admitted, and its first run seeds the
  /// estimate). The estimate is an exponentially weighted mean of exact's
  /// runs that also decays on every skip for budget, so an estimate one
  /// slow sample inflated is re-probed and recovers instead of locking
  /// exact out; a rung that stays slow is re-probed only rarely (constants
  /// and their reasons in tiered.cc). An unbounded budget always runs
  /// exact, and a spent one (deadline 0) always answers from the floor
  /// without touching the estimate.
  ///
  /// A floor answer is flagged `degraded` and carries the floor's certified
  /// stretchBound(), so a degraded reply is a weaker certificate, not a
  /// guess.
  BudgetedAnswer queryBudgeted(VertexId u, VertexId v,
                               const util::DeadlineBudget& budget) const;

  /// Per-tier counters (monotone since construction or the last
  /// resetStats) plus the query/degraded totals.
  OracleSnapshot snapshot() const;
  /// Zeroes every counter snapshot() reports and forgets exact's admission
  /// estimate (relaxed stores; safe against live queries).
  void resetStats();

 private:
  static constexpr int kFloor = 0;
  static constexpr int kExact = 1;

  struct Counters {
    std::atomic<std::uint64_t> attempts{0};
    std::atomic<std::uint64_t> nanos{0};
  };

  /// Whether the budget admits exact; a skip by estimate decays it.
  bool admitsExact(const util::DeadlineBudget& budget) const;
  /// query on `tier` with attempt/latency accounting; returns the answer
  /// and stores the run's wall time in *ns.
  Weight timedQuery(int tier, VertexId u, VertexId v, std::uint64_t* ns) const;

  std::shared_ptr<const DistanceProvider> rungs_[2];  // by tier index
  mutable Counters counters_[2];
  // Exact's admission estimate in ns; 0 = no sample yet.
  mutable std::atomic<std::uint64_t> estimate_{0};
  mutable std::atomic<std::uint64_t> queries_{0};
  mutable std::atomic<std::uint64_t> degraded_{0};
};

}  // namespace mpcspan::query
