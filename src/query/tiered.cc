#include "query/tiered.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

namespace mpcspan::query {

namespace {

// The admission estimate of a tier above the floor (see queryBudgeted).
// Each run moves it 1/8 of the way to the new sample: one p99 outlier of
// the exact tier (about 3x its mean) lifts it by a quarter of the mean at
// most, while a real change in latency shows within about 8 runs. Each
// skip for budget shrinks it by 1/64, so an estimate r times the budget is
// re-probed after about 64 ln r skips: a tier seeded by one slow first
// sample (1.35x the budget, seen at a 1 ms deadline) is back within ~20
// queries, and one that stays 10x too slow still runs on only ~2% of them.
constexpr unsigned kSampleShift = 3;  // weight 1/8 per run
constexpr unsigned kSkipShift = 6;    // decay 1/64 per skip

}  // namespace

TieredOracle::TieredOracle(
    std::vector<std::shared_ptr<const DistanceProvider>> tiers)
    : tiers_(std::move(tiers)), counters_(tiers_.size()) {
  if (tiers_.empty())
    throw std::invalid_argument("TieredOracle: needs at least one tier");
  for (const auto& t : tiers_)
    if (!t) throw std::invalid_argument("TieredOracle: null tier");
  for (const auto& t : tiers_)
    if (t->numVertices() != tiers_.front()->numVertices())
      throw std::invalid_argument(
          "TieredOracle: tiers disagree on vertex count");
}

std::size_t TieredOracle::numVertices() const {
  return tiers_.front()->numVertices();
}

Weight TieredOracle::timedQuery(std::size_t i, VertexId u, VertexId v) const {
  using Clock = std::chrono::steady_clock;
  Counters& c = counters_[i];
  c.attempts.fetch_add(1, std::memory_order_relaxed);
  const auto t0 = Clock::now();
  const Weight w = tiers_[i]->query(u, v);
  const auto dt = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
  c.nanos.fetch_add(dt, std::memory_order_relaxed);
  // The floor is never skipped, so its hot path keeps no estimate.
  if (i > 0) {
    std::uint64_t cur = c.estimate.load(std::memory_order_relaxed);
    std::uint64_t next = 0;
    do {
      next = cur == 0 ? std::max<std::uint64_t>(dt, 1)
                      : cur - (cur >> kSampleShift) + (dt >> kSampleShift);
    } while (!c.estimate.compare_exchange_weak(cur, next,
                                               std::memory_order_relaxed));
  }
  return w;
}

void TieredOracle::decayEstimate(std::size_t i) const {
  std::atomic<std::uint64_t>& est = counters_[i].estimate;
  std::uint64_t cur = est.load(std::memory_order_relaxed);
  while (!est.compare_exchange_weak(cur, cur - (cur >> kSkipShift),
                                    std::memory_order_relaxed)) {
  }
}

Weight TieredOracle::query(VertexId u, VertexId v) const {
  queries_.fetch_add(1, std::memory_order_relaxed);
  const std::size_t last = tiers_.size() - 1;
  for (std::size_t i = 0;; ++i) {
    const Weight w = timedQuery(i, u, v);
    // "Infinite" from a non-final tier falls through: its approximation
    // may simply not reach the pair.
    if (i == last || w != kInfDist) {
      counters_[i].hits.fetch_add(1, std::memory_order_relaxed);
      return w;
    }
  }
}

BudgetedAnswer TieredOracle::queryBudgeted(
    VertexId u, VertexId v, const util::DeadlineBudget& budget) const {
  queries_.fetch_add(1, std::memory_order_relaxed);
  const std::size_t last = tiers_.size() - 1;
  bool skipped = false;
  // Tier 0 is never skipped and always accepted, so the walk returns there
  // at the latest.
  for (std::size_t i = last;; --i) {
    if (i > 0 && budget.bounded()) {
      const std::int64_t rem = budget.remainingNanos();
      if (rem == 0) {
        skipped = true;
        continue;
      }
      if (counters_[i].estimate.load(std::memory_order_relaxed) >
          static_cast<std::uint64_t>(rem)) {
        // Only a skip by estimate decays it: a spent budget (deadline 0)
        // says nothing about the tier and stays off its cache line.
        decayEstimate(i);
        skipped = true;
        continue;
      }
    }
    const Weight w = timedQuery(i, u, v);
    // kInfDist is authoritative from the strongest tier, and from the floor
    // when nothing below remains to try; a mid-ladder "infinite" falls
    // through to a cheaper tier (mirror of query()'s rule).
    if (w == kInfDist && i != last && i != 0) continue;
    counters_[i].hits.fetch_add(1, std::memory_order_relaxed);
    if (skipped) degraded_.fetch_add(1, std::memory_order_relaxed);
    return {w, static_cast<int>(i), skipped, tiers_[i]->stretchBound()};
  }
}

double TieredOracle::stretchBound() const {
  double s = 1.0;
  for (const auto& t : tiers_) s = std::max(s, t->stretchBound());
  return s;
}

std::size_t TieredOracle::memoryWords() const {
  std::size_t w = 0;
  for (const auto& t : tiers_) w += t->memoryWords();
  return w;
}

std::vector<TierStats> TieredOracle::stats() const {
  std::vector<TierStats> out(tiers_.size());
  for (std::size_t i = 0; i < tiers_.size(); ++i) {
    out[i].name = tiers_[i]->name();
    out[i].attempts = counters_[i].attempts.load(std::memory_order_relaxed);
    out[i].hits = counters_[i].hits.load(std::memory_order_relaxed);
    out[i].nanos = counters_[i].nanos.load(std::memory_order_relaxed);
  }
  return out;
}

OracleSnapshot TieredOracle::snapshot() const {
  OracleSnapshot s;
  s.tiers = stats();
  s.queries = queries_.load(std::memory_order_relaxed);
  s.degraded = degraded_.load(std::memory_order_relaxed);
  return s;
}

void TieredOracle::resetStats() {
  for (auto& c : counters_) {
    c.attempts.store(0, std::memory_order_relaxed);
    c.hits.store(0, std::memory_order_relaxed);
    c.nanos.store(0, std::memory_order_relaxed);
    c.estimate.store(0, std::memory_order_relaxed);
  }
  queries_.store(0, std::memory_order_relaxed);
  degraded_.store(0, std::memory_order_relaxed);
}

}  // namespace mpcspan::query
