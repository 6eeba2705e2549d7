// One shared wall-clock budget for a multi-step operation.
//
// A per-wait timeout is the right contract for a single stream (a peer
// making progress is alive), but wrong for any operation composed of many
// waits — a peer trickling one byte per poll interval, or a query walking
// several answer tiers, would reset the clock at every step and extend the
// whole operation unbounded. A DeadlineBudget fixes the expiry instant once,
// at construction (monotonic clock); every wait it paces asks only for the
// time still remaining, so trickling spends the budget instead of
// refreshing it.
//
// Grew out of the shard transport's round barrier (PR 8) and generalized
// here so the serving daemon can use the same budget for per-request
// deadlines: src/runtime/shard/transport.hpp keeps a compatibility alias,
// util/socket.hpp paces every socket transfer of both layers with it, and
// src/serve/ paces request parsing, reply writes, and the degradation
// ladder (query::TieredOracle::queryBudgeted) off one budget per request.
//
// Constructed from a negative total the budget is unbounded (remainingMs()
// is -1, poll's "wait forever"). DeadlineBudget(0) is bounded and already
// expired — "answer with whatever you have right now".
#pragma once

#include <chrono>
#include <cstdint>

namespace mpcspan::util {

class DeadlineBudget {
 public:
  DeadlineBudget() = default;  // unbounded
  explicit DeadlineBudget(int totalMs)
      : totalMs_(totalMs),
        deadline_(std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(totalMs < 0 ? 0 : totalMs)) {}

  bool bounded() const { return totalMs_ >= 0; }
  int totalMs() const { return totalMs_; }

  /// Milliseconds left, clamped to >= 0; -1 when unbounded. Suitable as a
  /// poll() timeout verbatim.
  int remainingMs() const {
    if (!bounded()) return -1;
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline_ - std::chrono::steady_clock::now())
                          .count();
    return left > 0 ? static_cast<int>(left) : 0;
  }

  /// Nanoseconds left, clamped to >= 0; -1 when unbounded. The query
  /// plane's tier-admission check compares this against observed per-tier
  /// latencies, which sit well below a millisecond.
  std::int64_t remainingNanos() const {
    if (!bounded()) return -1;
    const auto left = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          deadline_ - std::chrono::steady_clock::now())
                          .count();
    return left > 0 ? static_cast<std::int64_t>(left) : 0;
  }

  bool expired() const { return bounded() && remainingNanos() == 0; }

 private:
  int totalMs_ = -1;
  std::chrono::steady_clock::time_point deadline_{};
};

}  // namespace mpcspan::util
