// The transport policy of RoundEngine: the MPC model of [KSV10/GSZ11/BKS13],
// all-to-all with per-machine word budgets — in one round no machine may
// send or receive more than wordsPerMachine words.
//
// The topology only *validates* a round; routing, delivery ordering, and
// accounting are the engine's job. Violations throw CapacityError — an
// algorithm that breaks its model must fail loudly. The Congested Clique
// and PRAM costs the library reports are formulas (cclique/apsp_cc.hpp,
// cclique/spanner_cc.hpp, pram/pram.hpp), not simulated rounds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "runtime/types.hpp"

namespace mpcspan::runtime {

class MpcTopology {
 public:
  explicit MpcTopology(std::size_t wordsPerMachine)
      : wordsPerMachine_(wordsPerMachine) {}

  std::size_t wordsPerMachine() const { return wordsPerMachine_; }

  /// Validates one whole round (outboxes[src] = every message machine src
  /// sends) as the composition every sharded round runs: validateSources
  /// over all sources, then validateInbound over the per-destination word
  /// sums. Throws std::invalid_argument on a destination outside
  /// [0, numMachines) and CapacityError on a budget violation. Returns the
  /// words moved.
  std::size_t validate(std::size_t numMachines,
                       const std::vector<std::vector<Message>>& outboxes) const;

  /// Source-side half: checks the send budget of the slice's own complete
  /// outboxes (sliceOutboxes[i] = every message machine begin + i sends;
  /// destinations already bounds-checked) and returns the words they send.
  /// The receive budget belongs to validateInbound() over the cross-shard
  /// per-destination sums. The split is what lets the sharded engine's one
  /// barrier validate a round *before* any frame is exchanged: sources are
  /// complete at phase A, and the inbound sums ride the barrier report for
  /// the coordinator to total up (tests/test_pipeline.cc checks both halves
  /// against the model rules).
  std::size_t validateSources(
      const std::vector<std::vector<Message>>& sliceOutboxes,
      std::size_t begin) const;

  /// Receiver-side half: received[m] = words delivered to machine m this
  /// round, summed across every shard (same-shard deliveries included).
  /// Throws CapacityError on a violation.
  void validateInbound(const std::vector<std::uint64_t>& received) const;

 private:
  std::size_t wordsPerMachine_;
};

}  // namespace mpcspan::runtime
