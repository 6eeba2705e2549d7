// Word-array passes for the hot kernel inner loops, enabled by rows living
// contiguously (arena-backed blocks, flat key scratch).
//
// Each pass is a portable scalar form written so the compiler can
// autovectorize it (flat arrays, no early exits in the steady state). They
// are exact integer passes, never reductions with reassociation, so every
// build produces the same bits.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "runtime/types.hpp"

namespace mpcspan::runtime::simd {

/// out[i] = base[i * stride + offset] — pulls one word per fixed-width
/// packed item cell into a flat array (key extraction without unpacking).
inline void gatherStride(const Word* base, std::size_t offset,
                         std::size_t stride, std::size_t count, Word* out) {
  if (stride == 1) {
    for (std::size_t i = 0; i < count; ++i) out[i] = base[offset + i];
    return;
  }
  for (std::size_t i = 0; i < count; ++i) out[i] = base[i * stride + offset];
}

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

/// First index in ascending keys[lo..n) with keys[i] > key (unsigned) — the
/// partition bound of a sorted run.
inline std::size_t upperBoundFrom(const Word* keys, std::size_t lo,
                                  std::size_t n, Word key) {
  return static_cast<std::size_t>(std::upper_bound(keys + lo, keys + n, key) -
                                  keys);
}

/// First index in ascending keys[lo..n) with keys[i] >= key (unsigned) —
/// the companion bound: together with upperBoundFrom it brackets the
/// equal-key run around `key`.
inline std::size_t lowerBoundFrom(const Word* keys, std::size_t lo,
                                  std::size_t n, Word key) {
  return static_cast<std::size_t>(std::lower_bound(keys + lo, keys + n, key) -
                                  keys);
}

}  // namespace mpcspan::runtime::simd
