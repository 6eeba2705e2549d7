// The one reader of the runtime's environment knobs (MPCSPAN_THREADS,
// MPCSPAN_SHARDS, MPCSPAN_TCP_*).
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

namespace mpcspan::runtime {

/// The environment variable `name` as a whole decimal in [lo, hi], or
/// `fallback` when it is unset or empty. Anything else ("4x", "abc", a
/// sign, a space, a value out of range) throws std::invalid_argument
/// naming the variable.
inline std::uint64_t envNumber(const char* name, std::uint64_t lo,
                               std::uint64_t hi, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  const char* end = v + std::strlen(v);
  std::uint64_t x = 0;
  const auto [p, ec] = std::from_chars(v, end, x);
  if (ec != std::errc() || p != end || x < lo || x > hi)
    throw std::invalid_argument(std::string(name) + "='" + v +
                                "': want a whole number in [" +
                                std::to_string(lo) + ", " +
                                std::to_string(hi) + "]");
  return x;
}

}  // namespace mpcspan::runtime
