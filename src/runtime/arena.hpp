// Per-worker arena allocation for the resident runtime's BlockStore blocks.
//
// Blocks are word buffers that kernels rebuild wholesale phase after phase,
// which a general-purpose heap serves with a malloc/free pair (plus touching
// fresh pages) per block per phase. The Arena instead carves power-of-two
// word runs out of a few large chunks and recycles them by size class: an
// owning WordBuf returns its run to the matching class on destruction or
// regrowth (block lifetimes overlap arbitrarily, so individual runs must be
// reusable), and a steady-state phase lands in memory an earlier one
// already warmed. Chunks live as long as the arena.
//
// Thread-safety: allocate/recycle are mutex-guarded (kernel steps resize
// blocks from pool threads concurrently). The memory itself is handed out
// exclusively, so readers/writers of distinct runs never race.
#pragma once

#include <cstddef>
#include <cstring>
#include <memory>
#include <mutex>
#include <vector>

#include "runtime/types.hpp"

namespace mpcspan::runtime {

class Arena {
 public:
  /// Minimum capacity of any run (words); tiny blocks still get a full
  /// cache line so neighbouring blocks never false-share.
  static constexpr std::size_t kMinRunWords = 8;

  explicit Arena(std::size_t minChunkWords = std::size_t{1} << 13);

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// The capacity class a request of `words` lands in: the power of two
  /// >= max(words, kMinRunWords). Callers that track capacity (WordBuf)
  /// compute it once and pass the rounded value back to recycle().
  static std::size_t roundCapacity(std::size_t words);

  /// Hands out an exclusively-owned run of roundCapacity(words) words
  /// (uninitialized). Never returns nullptr for words > 0.
  Word* allocate(std::size_t words);

  /// Returns a run to its size class for reuse. `capWords` must be the
  /// roundCapacity() the run was allocated with.
  void recycle(Word* p, std::size_t capWords) noexcept;

  /// Total words of backing memory this arena has reserved (diagnostics).
  std::size_t reservedWords() const;

 private:
  struct Chunk {
    std::unique_ptr<Word[]> mem;
    std::size_t cap = 0;
    std::size_t used = 0;
  };

  static std::size_t bucketOf(std::size_t capWords);

  mutable std::mutex mu_;
  std::vector<Chunk> chunks_;
  std::vector<std::vector<Word*>> free_;  // indexed by log2(capWords)
  std::size_t minChunkWords_;
  std::size_t reserved_ = 0;
};

/// A contiguous word buffer with std::vector<Word>'s hot-path surface,
/// backed by an Arena when one is attached (heap otherwise, so standalone
/// construction in tests and benches still works). Growth recycles the old
/// run back to the arena; destruction does the same.
class WordBuf {
 public:
  WordBuf() = default;
  explicit WordBuf(Arena* arena) : arena_(arena) {}
  ~WordBuf() { release(); }

  WordBuf(const WordBuf& o) : arena_(o.arena_) { assign(o.data_, o.size_); }
  WordBuf& operator=(const WordBuf& o) {
    if (this != &o) assign(o.data_, o.size_);
    return *this;
  }
  WordBuf(WordBuf&& o) noexcept
      : arena_(o.arena_), data_(o.data_), size_(o.size_), cap_(o.cap_) {
    o.data_ = nullptr;
    o.size_ = o.cap_ = 0;
  }
  WordBuf& operator=(WordBuf&& o) noexcept {
    if (this != &o) {
      release();
      arena_ = o.arena_;
      data_ = o.data_;
      size_ = o.size_;
      cap_ = o.cap_;
      o.data_ = nullptr;
      o.size_ = o.cap_ = 0;
    }
    return *this;
  }

  /// Contents come in as std::vector<Word> from the kernels' pack step;
  /// both overloads copy into arena memory (an rvalue cannot donate its
  /// heap to the arena).
  WordBuf& operator=(const std::vector<Word>& ws) {
    assign(ws.data(), ws.size());
    return *this;
  }
  WordBuf& operator=(std::vector<Word>&& ws) {
    assign(ws.data(), ws.size());
    return *this;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return cap_; }
  Word* data() { return data_; }
  const Word* data() const { return data_; }
  Word* begin() { return data_; }
  Word* end() { return data_ + size_; }
  const Word* begin() const { return data_; }
  const Word* end() const { return data_ + size_; }
  Word& operator[](std::size_t i) { return data_[i]; }
  Word operator[](std::size_t i) const { return data_[i]; }

  void clear() { size_ = 0; }
  void reserve(std::size_t n) { ensure(n); }

  /// Grows zero-filled / shrinks, like std::vector::resize.
  void resize(std::size_t n) {
    ensure(n);
    if (n > size_) std::memset(data_ + size_, 0, (n - size_) * sizeof(Word));
    size_ = n;
  }

  void assign(const Word* p, std::size_t n) {
    ensure(n);
    if (n) std::memmove(data_, p, n * sizeof(Word));
    size_ = n;
  }

  void append(const Word* p, std::size_t n) {
    ensure(size_ + n);
    if (n) std::memcpy(data_ + size_, p, n * sizeof(Word));
    size_ += n;
  }

  void push_back(Word w) {
    ensure(size_ + 1);
    data_[size_++] = w;
  }

  std::vector<Word> toVector() const { return {data_, data_ + size_}; }

  friend bool operator==(const WordBuf& a, const WordBuf& b) {
    return a.size_ == b.size_ &&
           (a.size_ == 0 ||
            std::memcmp(a.data_, b.data_, a.size_ * sizeof(Word)) == 0);
  }

 private:
  void ensure(std::size_t n) {
    if (n <= cap_) return;
    grow(n);
  }
  void grow(std::size_t n);
  void release() noexcept;

  Arena* arena_ = nullptr;
  Word* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t cap_ = 0;
};

}  // namespace mpcspan::runtime
