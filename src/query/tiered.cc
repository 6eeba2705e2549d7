#include "query/tiered.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

namespace mpcspan::query {

namespace {

// Exact's admission estimate (see queryBudgeted). Each run moves it 1/8 of
// the way to the new sample: one p99 outlier of the exact tier (about 3x
// its mean) lifts it by a quarter of the mean at most, while a real change
// in latency shows within about 8 runs. Each skip for budget shrinks it by
// 1/64, so an estimate r times the budget is re-probed after about 64 ln r
// skips: a tier seeded by one slow first sample (1.35x the budget, seen at
// a 1 ms deadline) is back within ~20 queries, and one that stays 10x too
// slow still runs on only ~2% of them.
constexpr unsigned kSampleShift = 3;  // weight 1/8 per run
constexpr unsigned kSkipShift = 6;    // decay 1/64 per skip

}  // namespace

TieredOracle::TieredOracle(std::shared_ptr<const DistanceProvider> floor,
                           std::shared_ptr<const DistanceProvider> exact)
    : rungs_{std::move(floor), std::move(exact)} {
  if (!rungs_[kFloor] || !rungs_[kExact])
    throw std::invalid_argument("TieredOracle: null tier");
  if (rungs_[kFloor]->numVertices() != rungs_[kExact]->numVertices())
    throw std::invalid_argument("TieredOracle: tiers disagree on vertex count");
}

Weight TieredOracle::timedQuery(int tier, VertexId u, VertexId v,
                                std::uint64_t* ns) const {
  using Clock = std::chrono::steady_clock;
  Counters& c = counters_[tier];
  c.attempts.fetch_add(1, std::memory_order_relaxed);
  const auto t0 = Clock::now();
  const Weight w = rungs_[tier]->query(u, v);
  *ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
  c.nanos.fetch_add(*ns, std::memory_order_relaxed);
  return w;
}

bool TieredOracle::admitsExact(const util::DeadlineBudget& budget) const {
  if (!budget.bounded()) return true;
  const std::int64_t rem = budget.remainingNanos();
  // A spent budget (deadline 0) says nothing about exact and stays off the
  // estimate's cache line.
  if (rem == 0) return false;
  std::uint64_t cur = estimate_.load(std::memory_order_relaxed);
  if (cur <= static_cast<std::uint64_t>(rem)) return true;
  while (!estimate_.compare_exchange_weak(cur, cur - (cur >> kSkipShift),
                                          std::memory_order_relaxed)) {
  }
  return false;
}

BudgetedAnswer TieredOracle::queryBudgeted(
    VertexId u, VertexId v, const util::DeadlineBudget& budget) const {
  queries_.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t dt = 0;
  if (!admitsExact(budget)) {
    degraded_.fetch_add(1, std::memory_order_relaxed);
    const Weight w = timedQuery(kFloor, u, v, &dt);
    return {w, kFloor, true, rungs_[kFloor]->stretchBound()};
  }
  const Weight w = timedQuery(kExact, u, v, &dt);
  std::uint64_t cur = estimate_.load(std::memory_order_relaxed);
  std::uint64_t next = 0;
  do {
    next = cur == 0 ? std::max<std::uint64_t>(dt, 1)
                    : cur - (cur >> kSampleShift) + (dt >> kSampleShift);
  } while (!estimate_.compare_exchange_weak(cur, next,
                                            std::memory_order_relaxed));
  return {w, kExact, false, rungs_[kExact]->stretchBound()};
}

OracleSnapshot TieredOracle::snapshot() const {
  OracleSnapshot s;
  for (int i : {kFloor, kExact}) {
    TierStats& t = s.tiers.emplace_back();
    t.name = rungs_[i]->name();
    t.attempts = counters_[i].attempts.load(std::memory_order_relaxed);
    // Every run of a rung is the answer: a rung never passes a pair on.
    t.hits = t.attempts;
    t.nanos = counters_[i].nanos.load(std::memory_order_relaxed);
  }
  s.queries = queries_.load(std::memory_order_relaxed);
  s.degraded = degraded_.load(std::memory_order_relaxed);
  return s;
}

void TieredOracle::resetStats() {
  for (Counters& c : counters_) {
    c.attempts.store(0, std::memory_order_relaxed);
    c.nanos.store(0, std::memory_order_relaxed);
  }
  estimate_.store(0, std::memory_order_relaxed);
  queries_.store(0, std::memory_order_relaxed);
  degraded_.store(0, std::memory_order_relaxed);
}

}  // namespace mpcspan::query
