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

  /// A round is legal when both halves pass: MachineSlice::step runs the
  /// source half on its own outboxes, the receive half runs over every
  /// slice's summed per-destination words, so the sharded barrier checks a
  /// round before any frame is exchanged (tests/test_pipeline.cc).

  /// Source-side half: checks the send budget of the slice's own complete
  /// outboxes (sliceOutboxes[i] = every message machine begin + i sends;
  /// destinations already bounds-checked) and returns the words they send.
  std::size_t validateSources(const std::vector<WordRows>& sliceOutboxes,
                              std::size_t begin) const;

  /// Receiver-side half: received[m] = words delivered to machine m this
  /// round, summed across every shard (same-shard deliveries included).
  /// Throws CapacityError on a violation.
  void validateInbound(const std::vector<std::uint64_t>& received) const;

 private:
  std::size_t wordsPerMachine_;
};

}  // namespace mpcspan::runtime
