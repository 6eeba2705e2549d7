// runStarts, the word-array pass behind SegMinKernel's local reduce
// (mpc/sort_kernels.hpp), enabled by keys living in one flat array.
//
// It is a portable scalar form written so the compiler can autovectorize it
// (a flat array, no early exits in the steady state), and an exact integer
// pass, so every build produces the same bits.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "runtime/types.hpp"

namespace mpcspan::runtime::simd {

/// Appends to `starts` the index of every run start in keys[0..n): 0 and
/// every i with keys[i] != keys[i-1]. Run indices are u32 (a block never
/// holds 2^32 items — it fits one machine's memory).
inline void runStarts(const Word* keys, std::size_t n,
                      std::vector<std::uint32_t>& starts) {
  starts.clear();
  if (n == 0) return;
  starts.push_back(0);
  for (std::size_t i = 1; i < n; ++i)
    if (keys[i] != keys[i - 1]) starts.push_back(static_cast<std::uint32_t>(i));
}

}  // namespace mpcspan::runtime::simd
