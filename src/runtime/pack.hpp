// Item <-> machine-word packing shared by registered kernels and their
// drivers (the MPC sort and growth kernels). Items must be trivially
// copyable;
// an item occupies wordsPerItem<T>() whole words, so concatenating packed
// payloads and unpacking the concatenation is the same as unpacking each
// payload — the property the flat inbox views rely on.
#pragma once

#include <cstring>
#include <type_traits>
#include <vector>

#include "runtime/types.hpp"

namespace mpcspan {

template <typename T>
constexpr std::size_t wordsPerItem() {
  static_assert(std::is_trivially_copyable_v<T>);
  return (sizeof(T) + sizeof(Word) - 1) / sizeof(Word);
}

template <typename T>
std::vector<Word> packItems(const T* items, std::size_t count) {
  std::vector<Word> words(count * wordsPerItem<T>(), 0);
  for (std::size_t i = 0; i < count; ++i)
    std::memcpy(words.data() + i * wordsPerItem<T>(), items + i, sizeof(T));
  return words;
}

/// Works on any contiguous word container (std::vector<Word>, the
/// arena-backed runtime::WordBuf blocks) — only data()/size() are used.
template <typename T, typename Words>
std::vector<T> unpackItems(const Words& words) {
  const std::size_t count = words.size() / wordsPerItem<T>();
  std::vector<T> items(count);
  for (std::size_t i = 0; i < count; ++i)
    std::memcpy(&items[i], words.data() + i * wordsPerItem<T>(), sizeof(T));
  return items;
}

}  // namespace mpcspan
