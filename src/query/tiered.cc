#include "query/tiered.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

namespace mpcspan::query {

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
  return w;
}

std::uint64_t TieredOracle::meanTierNanos(std::size_t i) const {
  const std::uint64_t attempts =
      counters_[i].attempts.load(std::memory_order_relaxed);
  if (attempts == 0) return 0;
  return counters_[i].nanos.load(std::memory_order_relaxed) / attempts;
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
      if (rem == 0 || meanTierNanos(i) > static_cast<std::uint64_t>(rem)) {
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
  }
  queries_.store(0, std::memory_order_relaxed);
  degraded_.store(0, std::memory_order_relaxed);
}

}  // namespace mpcspan::query
