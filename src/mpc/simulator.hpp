// Word-accurate MPC machine simulator — a thin facade over
// runtime::RoundEngine with an MpcTopology.
//
// Models the [KSV10/GSZ11/BKS13] machine cluster: `numMachines` machines,
// each with `wordsPerMachine` words of local memory; computation proceeds in
// synchronous rounds, and in one round no machine may send or receive more
// words than its memory. The engine routes messages, enforces those limits
// (throwing CapacityError on violation — a violation means the *algorithm*
// breaks the model, so it must be loud), counts rounds and traffic, and
// steps machines in parallel on a work-stealing thread pool with
// deterministic delivery. The Goodrich-style primitives in primitives.hpp
// run on top of it.
#pragma once

#include <cstdint>
#include <vector>

#include "runtime/round_engine.hpp"

namespace mpcspan {

struct MpcConfig {
  std::size_t numMachines = 0;
  std::size_t wordsPerMachine = 0;

  /// Machines for input size N with local memory S=N^gamma: S words each,
  /// ceil(N/S) machines (plus slack factor for intermediate data).
  static MpcConfig forInput(std::size_t inputWords, double gamma, double slack = 2.0);
};

class MpcSimulator {
 public:
  /// `threads` is forwarded to the round engine's stepping pool, `shards`
  /// to its multi-process backend, and `transport` routes that backend's
  /// cross-shard sections (shm ring or tcp mesh; see
  /// runtime::EngineConfig). Results are bit-identical for every thread,
  /// shard, and transport choice.
  explicit MpcSimulator(MpcConfig cfg, std::size_t threads = 0,
                        std::size_t shards = 0,
                        runtime::Transport transport =
                            runtime::Transport::kShmRing);

  std::size_t numMachines() const { return cfg_.numMachines; }
  std::size_t numShards() const { return engine_.numShards(); }
  /// True when sharded rounds move sections through shared-memory rings.
  bool shmRingShards() const { return engine_.shmRingShards(); }
  /// True when sharded rounds move sections over the tcp mesh.
  bool tcpMeshShards() const { return engine_.tcpMeshShards(); }
  std::size_t wordsPerMachine() const { return cfg_.wordsPerMachine; }

  std::size_t rounds() const { return engine_.rounds(); }
  std::size_t totalWordsSent() const { return engine_.totalWordsSent(); }
  std::size_t maxRoundWords() const { return engine_.maxRoundWords(); }

  /// A message from one machine to another within a single round.
  using Message = runtime::Message;

  /// Executes one synchronous communication round. `outboxes[i]` holds the
  /// messages machine i sends. Returns the inbox of each machine (payloads
  /// concatenated in sender order — deterministic for every thread count).
  /// Enforces per-machine send and receive limits of wordsPerMachine.
  std::vector<std::vector<Word>> communicate(
      std::vector<std::vector<Message>> outboxes);

  /// Charges `n` rounds without moving data (used when a primitive's round
  /// structure is simulated at a coarser granularity, e.g. local sorting
  /// phases that occupy a round boundary).
  void chargeRounds(std::size_t n) { engine_.chargeRounds(n); }

  /// The underlying substrate; consumers use its pool for deterministic
  /// parallel local phases (sorting, packing) between rounds.
  runtime::RoundEngine& engine() { return engine_; }

 private:
  MpcConfig cfg_;
  runtime::RoundEngine engine_;
};

}  // namespace mpcspan
