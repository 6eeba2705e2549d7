#include "runtime/arena.hpp"

#include <bit>

namespace mpcspan::runtime {

Arena::Arena(std::size_t minChunkWords)
    : free_(64), minChunkWords_(std::max(minChunkWords, kMinRunWords)) {}

std::size_t Arena::roundCapacity(std::size_t words) {
  return std::bit_ceil(std::max(words, kMinRunWords));
}

std::size_t Arena::bucketOf(std::size_t capWords) {
  return static_cast<std::size_t>(std::countr_zero(capWords));
}

Word* Arena::allocate(std::size_t words) {
  const std::size_t cap = roundCapacity(words);
  const std::size_t bucket = bucketOf(cap);
  std::lock_guard<std::mutex> lock(mu_);
  if (!free_[bucket].empty()) {
    Word* p = free_[bucket].back();
    free_[bucket].pop_back();
    return p;
  }
  // Bump from the first chunk with room; chunks filled earlier stay
  // fragmented, which is fine — runs this size will keep coming back
  // through the free lists.
  for (Chunk& c : chunks_) {
    if (c.cap - c.used >= cap) {
      Word* p = c.mem.get() + c.used;
      c.used += cap;
      return p;
    }
  }
  Chunk c;
  c.cap = std::max(minChunkWords_, cap);
  c.mem = std::make_unique_for_overwrite<Word[]>(c.cap);
  c.used = cap;
  reserved_ += c.cap;
  chunks_.push_back(std::move(c));
  return chunks_.back().mem.get();
}

void Arena::recycle(Word* p, std::size_t capWords) noexcept {
  if (p == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  free_[bucketOf(capWords)].push_back(p);
}

std::size_t Arena::reservedWords() const {
  std::lock_guard<std::mutex> lock(mu_);
  return reserved_;
}

void WordBuf::grow(std::size_t n) {
  const std::size_t newCap = Arena::roundCapacity(n);
  Word* nd = arena_ ? arena_->allocate(newCap) : new Word[newCap];
  if (size_) std::memcpy(nd, data_, size_ * sizeof(Word));
  release();
  data_ = nd;
  cap_ = newCap;
}

void WordBuf::release() noexcept {
  if (data_ == nullptr) return;
  if (arena_)
    arena_->recycle(data_, cap_);
  else
    delete[] data_;
  data_ = nullptr;
  cap_ = 0;
}

}  // namespace mpcspan::runtime
