// Congested Clique simulator (Section 8) — a thin facade over
// runtime::RoundEngine with a CliqueTopology.
//
// n nodes; in one synchronous round every ordered pair may exchange one
// Theta(log n)-bit message (one machine word here). The engine enforces the
// per-pair limit, counts rounds and words, and delivers deterministically;
// this facade adds the two routing facilities the paper relies on:
//   - Lenzen's routing [Len13]: any instance where each node sends and
//     receives at most n words completes in O(1) rounds (we charge 2).
//   - spanner collection: every node learns a payload of W words in
//     ceil(W/(n-1)) + O(1) rounds (Corollary 1.5's "let all vertices learn
//     the whole spanner").
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "runtime/round_engine.hpp"

namespace mpcspan {

class CongestedClique {
 public:
  /// `threads` is forwarded to the round engine's stepping pool, `shards`
  /// to its multi-process backend, and `transport` routes that backend's
  /// cross-shard sections (shm ring or tcp mesh; see
  /// runtime::EngineConfig).
  explicit CongestedClique(std::size_t n, std::size_t threads = 0,
                           std::size_t shards = 0,
                           runtime::Transport transport =
                               runtime::Transport::kShmRing);

  std::size_t numNodes() const { return n_; }
  std::size_t numShards() const { return engine_.numShards(); }
  std::size_t rounds() const { return engine_.rounds(); }
  std::size_t totalWords() const { return engine_.totalWordsSent(); }

  /// A directed message. The clique model allows exactly one word per
  /// ordered pair per round, so `payload` is normally one word; the vector
  /// form exists so the API edge can *reject* malformed (zero-word)
  /// messages explicitly instead of reading past an empty payload, and the
  /// topology rejects oversized ones.
  struct Msg {
    VertexId src;
    VertexId dst;
    std::vector<Word> payload;
  };

  /// One direct round: at most one word per ordered (src,dst) pair.
  /// Returns per-node inboxes as (src, payload) pairs in sender order.
  /// Throws std::invalid_argument on an out-of-range node id or an empty
  /// payload, CapacityError when a pair is reused or a payload exceeds the
  /// one-word budget.
  std::vector<std::vector<std::pair<VertexId, Word>>> directRound(
      const std::vector<Msg>& msgs);

  /// Validates a Lenzen routing instance (per-node send/receive <= n words)
  /// and charges its O(1) rounds. The caller performs delivery host-side;
  /// this accounts for the cost and rejects infeasible instances.
  void lenzenRoute(const std::vector<std::size_t>& sendPerNode,
                   const std::vector<std::size_t>& recvPerNode);

  /// Rounds for every node to learn the same `totalWords`-word payload
  /// (each node can receive n-1 words per round; the payload is spread over
  /// the nodes and then disseminated). Charges and returns the rounds.
  std::size_t collectToAll(std::size_t totalWords);

  /// One broadcast round: each node sends one word to all others.
  void broadcastRound() { chargeRounds(1); }

  void chargeRounds(std::size_t r) { engine_.chargeRounds(r); }

  /// The underlying substrate (clique topology).
  runtime::RoundEngine& engine() { return engine_; }

 private:
  std::size_t n_;
  runtime::RoundEngine engine_;
};

}  // namespace mpcspan
