// Shared vocabulary of the round-engine runtime: the machine word, the
// capacity-violation error, a round's traffic (WordRows, and RowView over
// one of its rows), and the round/traffic ledger.
//
// `Word` and `CapacityError` live directly in namespace mpcspan — they are
// the currency of the MPC layer above the engine too (mpc/simulator.hpp,
// mpc/primitives.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <stdexcept>
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

/// One message as a view: its peer — the destination in an outbox, the
/// sender in an inbox — and its words.
struct RowView {
  std::size_t peer;
  std::span<const Word> words;
};

/// A round's traffic in one owned buffer: every message's words back to
/// back, plus one (peer, len) row per message, in order. It is a kernel's
/// outbox (peer = destination, in send order), a shard worker's rows from
/// one source after the section merge (peer = destination), and a machine's
/// inbox as snapshotInboxes returns it (peer = source, in delivery order).
class WordRows {
 public:
  struct Row {
    std::size_t peer;
    std::size_t len;
    friend bool operator==(const Row&, const Row&) = default;
  };

  class const_iterator {
   public:
    RowView operator*() const { return {row_->peer, {words_, row_->len}}; }
    const_iterator& operator++() {
      words_ += row_->len;
      ++row_;
      return *this;
    }
    bool operator==(const const_iterator& o) const { return row_ == o.row_; }

   private:
    friend class WordRows;
    const_iterator(const Row* row, const Word* words)
        : row_(row), words_(words) {}
    const Row* row_;
    const Word* words_;
  };

  /// Appends a row carrying `ws` to `peer`.
  void add(std::size_t peer, std::span<const Word> ws) {
    rows_.push_back({peer, ws.size()});
    words_.insert(words_.end(), ws.begin(), ws.end());
  }
  void add(std::size_t peer, std::initializer_list<Word> ws) {
    add(peer, std::span<const Word>(ws.begin(), ws.size()));
  }
  /// Appends a row of `len` zeroed words to `peer` and returns them, for
  /// the caller to fill before the next append.
  Word* append(std::size_t peer, std::size_t len) {
    rows_.push_back({peer, len});
    words_.resize(words_.size() + len);
    return words_.data() + words_.size() - len;
  }
  void reserve(std::size_t rows, std::size_t words) {
    rows_.reserve(rows);
    words_.reserve(words);
  }

  /// Rows (messages), and words over every row.
  std::size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }
  std::size_t wordCount() const { return words_.size(); }
  const std::vector<Row>& rows() const { return rows_; }
  std::span<const Word> words() const { return words_; }

  const_iterator begin() const { return {rows_.data(), words_.data()}; }
  const_iterator end() const { return {rows_.data() + rows_.size(), nullptr}; }

  friend bool operator==(const WordRows&, const WordRows&) = default;

 private:
  std::vector<Word> words_;
  std::vector<Row> rows_;
};

/// The round/traffic ledger of one engine.
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
