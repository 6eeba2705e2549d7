// Item <-> machine-word packing shared by registered kernels and their
// drivers (the MPC sort and growth kernels). Items must be trivially
// copyable; an item occupies wordsPerItem<T>() whole words, so unpacking a
// machine's inbox row by row (appendItems) yields the items of the packed
// rows concatenated in delivery order.
#pragma once

#include <cstring>
#include <span>
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

/// Appends the items packed in `words` (a block or an inbox row) to `items`.
template <typename T>
void appendItems(std::vector<T>& items, std::span<const Word> words) {
  const std::size_t count = words.size() / wordsPerItem<T>();
  const std::size_t at = items.size();
  items.resize(at + count);
  for (std::size_t i = 0; i < count; ++i)
    std::memcpy(&items[at + i], words.data() + i * wordsPerItem<T>(),
                sizeof(T));
}

template <typename T>
std::vector<T> unpackItems(std::span<const Word> words) {
  std::vector<T> items;
  appendItems(items, words);
  return items;
}

}  // namespace mpcspan
