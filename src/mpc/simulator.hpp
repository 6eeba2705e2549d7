// Word-accurate MPC machine simulator — a thin facade over
// runtime::RoundEngine with an MpcTopology.
//
// Models the [KSV10/GSZ11/BKS13] machine cluster: `numMachines` machines,
// each with `wordsPerMachine` words of local memory; computation proceeds in
// synchronous rounds, and in one round no machine may send or receive more
// words than its memory. Every round is a registered-kernel step on the
// engine (engine().step): it routes the messages, enforces those limits
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
  /// `threads` is forwarded to the round engine's stepping pool and
  /// `shards` to its multi-process backend (resident workers on the tcp
  /// mesh; see runtime::EngineConfig). Results are bit-identical for every
  /// thread and shard count.
  explicit MpcSimulator(MpcConfig cfg, std::size_t threads = 0,
                        std::size_t shards = 0);

  std::size_t numMachines() const { return cfg_.numMachines; }
  std::size_t numShards() const { return engine_.numShards(); }
  std::size_t wordsPerMachine() const { return cfg_.wordsPerMachine; }

  std::size_t rounds() const { return engine_.rounds(); }
  std::size_t totalWordsSent() const { return engine_.totalWordsSent(); }
  std::size_t maxRoundWords() const { return engine_.maxRoundWords(); }

  /// The underlying substrate; consumers use its pool for deterministic
  /// parallel local phases (sorting, packing) between rounds.
  runtime::RoundEngine& engine() { return engine_; }

 private:
  MpcConfig cfg_;
  runtime::RoundEngine engine_;
};

}  // namespace mpcspan
