// Shared vocabulary of the round-engine runtime: the machine word, the
// capacity-violation error, message/delivery records, and the round/traffic
// ledger. Every substrate facade (MPC, Congested Clique, PRAM) speaks these
// types; nothing here depends on a particular model.
//
// `Word` and `CapacityError` live directly in namespace mpcspan — they are
// the library-wide currency (formerly defined in mpc/simulator.hpp, which
// forced cclique to include the MPC header just for them).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <stdexcept>
#include <utility>
#include <vector>

namespace mpcspan {

/// One Theta(log n)-bit machine word, the unit of all communication limits.
using Word = std::uint64_t;

/// Thrown when an algorithm violates the model's communication limits. A
/// violation means the *algorithm* breaks the model, so it must be loud.
class CapacityError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

namespace runtime {

/// Transport of cross-shard traffic (EngineConfig::transport). kShmRing is
/// same-host (the arena and doorbell sockets are inherited across fork);
/// kTcp rendezvouses over loopback or a real network and is the only
/// transport that can attach workers from other machines
/// (tools/mpcspan_worker).
enum class Transport : int {
  kShmRing = 2,  ///< shared-memory rings; socketpairs carry doorbells
  kTcp = 3,      ///< TCP mesh formed by rendezvous (cross-machine capable)
};

/// Message payload with a single-word fast path. Most traffic in the clique
/// label rounds and the PRAM write rounds is exactly one word; storing it
/// inline avoids a heap allocation per message (the constant-factor
/// regression the flat pre-runtime delivery did not have). Longer payloads
/// spill to a heap vector — or, for merged cross-shard rows, *borrow* words
/// that a per-worker delivery arena owns (see Payload::borrowed), so the
/// resident inbox stops paying one vector per row per round.
class Payload {
 public:
  Payload() = default;
  Payload(std::initializer_list<Word> ws) { assignAny(ws.begin(), ws.size()); }
  Payload(const std::vector<Word>& ws) { assignAny(ws.data(), ws.size()); }
  Payload(std::vector<Word>&& ws) {
    if (ws.size() <= 1) {
      assign(ws.data(), ws.size());
    } else {
      heap_ = std::move(ws);
      size_ = kHeapTag;
    }
  }
  Payload(const Word* ws, std::size_t n) { assignAny(ws, n); }

  /// Wraps `n` words owned by an external allocator without copying them.
  /// The borrow is only as durable as the owner's memory: the sharded
  /// engine hands out arena words that stay valid until the round that
  /// *replaces* the inbox commits, which covers every legal access to a
  /// resident inbox (kernels read ctx.inbox only inside the round). A
  /// *copy* of a borrowed payload deep-copies to the heap — copies escape
  /// the round (inbox snapshots, test captures), so they must not extend
  /// the borrow. Single words still go inline.
  static Payload borrowed(const Word* ws, std::size_t n) {
    Payload p;
    if (n <= 1) {
      p.assign(ws, n);
    } else {
      p.ext_ = ws;
      p.inline_ = n;
      p.size_ = kExtTag;
    }
    return p;
  }

  Payload(const Payload& o) { *this = o; }
  Payload& operator=(const Payload& o) {
    if (this == &o) return *this;
    if (o.size_ == kExtTag) {
      heap_.assign(o.ext_, o.ext_ + o.inline_);
      size_ = kHeapTag;
      ext_ = nullptr;
    } else {
      inline_ = o.inline_;
      size_ = o.size_;
      heap_ = o.heap_;
      ext_ = nullptr;
    }
    return *this;
  }
  Payload(Payload&& o) noexcept
      : inline_(o.inline_), size_(o.size_), heap_(std::move(o.heap_)),
        ext_(o.ext_) {
    o.size_ = 0;
    o.ext_ = nullptr;
  }
  Payload& operator=(Payload&& o) noexcept {
    inline_ = o.inline_;
    size_ = o.size_;
    heap_ = std::move(o.heap_);
    ext_ = o.ext_;
    o.size_ = 0;
    o.ext_ = nullptr;
    return *this;
  }

  std::size_t size() const {
    return size_ == kHeapTag   ? heap_.size()
           : size_ == kExtTag ? static_cast<std::size_t>(inline_)
                              : size_;
  }
  bool empty() const { return size() == 0; }
  const Word* data() const {
    return size_ == kHeapTag ? heap_.data() : size_ == kExtTag ? ext_ : &inline_;
  }
  const Word* begin() const { return data(); }
  const Word* end() const { return data() + size(); }
  Word operator[](std::size_t i) const { return data()[i]; }
  Word front() const { return data()[0]; }

  friend bool operator==(const Payload& a, const Payload& b) {
    return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
  }
  friend bool operator==(const Payload& a, const std::vector<Word>& b) {
    return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
  }
  friend bool operator==(const std::vector<Word>& a, const Payload& b) {
    return b == a;
  }

 private:
  static constexpr std::size_t kHeapTag = static_cast<std::size_t>(-1);
  static constexpr std::size_t kExtTag = static_cast<std::size_t>(-2);

  void assign(const Word* ws, std::size_t n) {  // n <= 1
    inline_ = n ? ws[0] : 0;
    size_ = n;
  }
  void assignAny(const Word* ws, std::size_t n) {
    if (n <= 1) {
      assign(ws, n);
    } else {
      heap_.assign(ws, ws + n);
      size_ = kHeapTag;
    }
  }

  Word inline_ = 0;  // the word itself, or the borrowed length (kExtTag)
  std::size_t size_ = 0;
  std::vector<Word> heap_;
  const Word* ext_ = nullptr;  // borrowed words (kExtTag only)
};

/// A message from one machine to another within a single synchronous round.
struct Message {
  std::size_t dst;
  Payload payload;
};

/// A delivered message: the payload plus the sender's id. Inboxes hold
/// deliveries in stable (src, send-position) order, independent of how many
/// threads stepped the round.
struct Delivery {
  std::size_t src;
  Payload payload;
};

/// Round/traffic ledger shared by all substrates.
struct Accounting {
  std::size_t rounds = 0;
  std::size_t wordsSent = 0;
  std::size_t maxRoundWords = 0;

  void noteRound(std::size_t roundWords) {
    ++rounds;
    wordsSent += roundWords;
    if (roundWords > maxRoundWords) maxRoundWords = roundWords;
  }
};

}  // namespace runtime
}  // namespace mpcspan
