// TieredOracle: a DistanceProvider composed of cheaper-to-costlier tiers.
//
// query(u, v) walks the tiers in order. A tier's answer is accepted unless
// it is kInfDist from a tier before the last: a non-final tier saying
// "infinite" may just mean its approximation cannot see the connection, so
// the pair falls through to a stronger tier. The final tier's answer is
// returned as-is (its kInfDist is authoritative: disconnected).
//
// The canonical stack (makeQueryPlane in build.hpp):
//   sketch (O(k) lookup, the floor)  ->  exact (Dijkstra).
//
// Per-tier attempt/hit/latency counters are relaxed atomics — query() is
// const and thread-safe whenever every tier is (the provider contract).
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
/// daemon's STATS command reports. Reads are relaxed atomics (the same
/// discipline as stats()), so snapshotting never blocks or races live
/// queries; the fields are each individually consistent, not a cross-field
/// transaction.
struct OracleSnapshot {
  std::vector<TierStats> tiers;
  std::uint64_t queries = 0;   // query() + queryBudgeted() calls
  std::uint64_t degraded = 0;  // budget-degraded queryBudgeted answers
};

/// queryBudgeted's result: the estimate plus the certificate that makes a
/// degraded answer principled — which tier answered and the multiplicative
/// stretch bound it guarantees.
struct BudgetedAnswer {
  Weight dist = kInfDist;
  int tier = 0;            // index into tier()
  bool degraded = false;   // a more accurate tier was skipped for budget
  double stretch = 1.0;    // stretchBound() of the answering tier
};

class TieredOracle final : public DistanceProvider {
 public:
  /// Tiers in probe order, cheapest first. Throws std::invalid_argument if
  /// empty, any tier is null, or the tiers disagree on numVertices().
  explicit TieredOracle(
      std::vector<std::shared_ptr<const DistanceProvider>> tiers);

  std::string name() const override { return "tiered"; }
  std::size_t numVertices() const override;
  Weight query(VertexId u, VertexId v) const override;
  /// Max over tiers — any tier's accepted answer satisfies it.
  double stretchBound() const override;
  std::size_t memoryWords() const override;

  std::size_t numTiers() const { return tiers_.size(); }
  const DistanceProvider& tier(std::size_t i) const { return *tiers_[i]; }

  /// Deadline-budgeted, accuracy-first query — the serving daemon's entry
  /// point. Where query() walks cheapest-first (minimize work), this walks
  /// the ladder *costliest/most-accurate first* (maximize answer quality)
  /// and lets the budget prune it: a tier above the floor is entered only
  /// when the budget's remaining time covers that tier's observed mean
  /// query latency (counter-derived; a tier with no samples yet is always
  /// admitted — its first call seeds the estimate). Tier 0, the cheapest,
  /// is the degradation floor and is never skipped, so the walk always
  /// answers.
  ///
  /// Acceptance mirrors query(): kInfDist is authoritative only from the
  /// strongest tier (or from the floor, when nothing below remains to try).
  /// The answer is flagged `degraded` when a more accurate tier was skipped
  /// for budget — the caller gets the answering tier's certified
  /// stretchBound() alongside, so a degraded reply is a weaker certificate,
  /// not a guess. An unbounded budget makes this exactly "strongest tier
  /// answers".
  ///
  /// Thread-safe under the same contract as query().
  BudgetedAnswer queryBudgeted(VertexId u, VertexId v,
                               const util::DeadlineBudget& budget) const;

  /// Snapshot of per-tier counters (monotone since construction or the
  /// last resetStats).
  std::vector<TierStats> stats() const;
  /// Everything at once: per-tier counters plus the query/degraded totals.
  OracleSnapshot snapshot() const;
  /// Zeroes every counter stats()/snapshot() report, including the
  /// query/degraded totals (relaxed stores; safe against live queries).
  void resetStats();

 private:
  struct Counters {
    std::atomic<std::uint64_t> attempts{0};
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> nanos{0};
  };

  /// query on tier i with attempt/latency accounting (hit not counted).
  Weight timedQuery(std::size_t i, VertexId u, VertexId v) const;
  /// Observed mean query nanos of tier i; 0 until the first sample.
  std::uint64_t meanTierNanos(std::size_t i) const;

  std::vector<std::shared_ptr<const DistanceProvider>> tiers_;
  // Sized once at construction; atomics are immovable so the vector is
  // never resized.
  mutable std::vector<Counters> counters_;
  mutable std::atomic<std::uint64_t> queries_{0};
  mutable std::atomic<std::uint64_t> degraded_{0};
};

}  // namespace mpcspan::query
