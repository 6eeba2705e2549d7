// Pluggable transport policies for RoundEngine — the one place where the
// three models of the paper differ at the communication layer:
//
//   MpcTopology    — [KSV10/GSZ11/BKS13] all-to-all with per-machine word
//                    budgets: in one round no machine may send or receive
//                    more than wordsPerMachine words.
//   CliqueTopology — Congested Clique (Section 8): every ordered (src,dst)
//                    pair may carry at most one single-word message per
//                    round.
//   PramTopology   — CRCW PRAM leader-pointer memory (Section 6): machines
//                    are processors, destinations are shared-memory cells,
//                    any number of single-word concurrent writes per cell;
//                    the engine resolves them Priority-CRCW (lowest writer
//                    id wins), which is deterministic.
//
// A topology only *validates and classifies* a round; routing, delivery
// ordering, and accounting are the engine's job and identical across
// models. Violations throw CapacityError — an algorithm that breaks its
// model must fail loudly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "runtime/types.hpp"

namespace mpcspan::runtime {

class Topology {
 public:
  /// How the engine resolves the validated round.
  enum class Mode {
    kDeliverAll,     // every message reaches its destination's inbox
    kPriorityWrite,  // per destination only the lowest-src write lands
  };

  /// Wire descriptor for transports that must rebuild the topology in a
  /// process sharing no memory with the coordinator (tcp remote attach).
  /// kOpaque topologies cannot cross the wire; the tcp SETUP frame rejects
  /// them with ShardError instead of silently validating nothing.
  enum class WireKind : std::uint8_t {
    kMpc = 0,
    kClique = 1,
    kPram = 2,
    kOpaque = 255,
  };

  virtual ~Topology() = default;

  virtual const char* name() const = 0;

  virtual WireKind wireKind() const { return WireKind::kOpaque; }
  /// Single scalar parameter riding the wire descriptor (wordsPerMachine
  /// for MpcTopology; unused otherwise).
  virtual std::uint64_t wireParam() const { return 0; }

  /// Validates one round's outboxes (outboxes[src] = messages machine src
  /// sends; destination ids already bounds-checked by the engine). Throws
  /// CapacityError on a model violation. Returns the words moved.
  std::size_t validate(std::size_t numMachines,
                       const std::vector<std::vector<Message>>& outboxes) const {
    return validateSlice(numMachines, outboxes, 0, numMachines);
  }

  /// Shardable validation: checks every constraint *attributable to machines
  /// in [begin, end)* — their sends and their receives — against the full
  /// round's outboxes, and returns the words sent by sources in the range.
  /// Callers guarantee bounds-checked destinations only for sources in
  /// [begin, end); an implementation that scans sources outside the range
  /// (MpcTopology does, for receive budgets) must check msg.dst itself and
  /// throw std::invalid_argument, never index out of bounds.
  /// The union over a partition of [0, numMachines) validates the whole
  /// round, and the per-slice word counts sum to validate()'s return; this
  /// is what lets every ShardedEngine worker validate its own range of a
  /// coordinator-built EXCHANGE round against its projected round view
  /// (own sources complete, inbound cross-shard rows for the rest: receives
  /// of [begin, end) are complete by construction, and sends outside the
  /// slice, though partial, are never checked here).
  virtual std::size_t validateSlice(
      std::size_t numMachines,
      const std::vector<std::vector<Message>>& outboxes, std::size_t begin,
      std::size_t end) const = 0;

  /// Source-side half of validateSlice, over just the slice's own
  /// complete outboxes (sliceOutboxes[i] = every message machine
  /// begin + i sends; destinations already bounds-checked). Checks each
  /// constraint attributable to those sources and returns the words they
  /// send. Receiver-side constraints are covered by validateInbound()
  /// over the cross-shard per-destination sums — together the two halves
  /// must check exactly what validateSlice checks (tests/test_pipeline.cc
  /// pins that contract for the built-ins). The split is what lets the
  /// sharded engine's one barrier validate a kernel round *before* any
  /// frame is exchanged: sources are complete at phase A, and the inbound
  /// sums ride the barrier report for the coordinator to total up. Both
  /// halves are pure virtual so no topology can silently under-validate.
  virtual std::size_t validateSources(
      std::size_t numMachines,
      const std::vector<std::vector<Message>>& sliceOutboxes,
      std::size_t begin) const = 0;

  /// True when the topology constrains per-machine *inbound* words; the
  /// sharded engine then ships per-destination word sums with each
  /// barrier report so the coordinator can run validateInbound().
  virtual bool needsInboundSums() const { return false; }

  /// Receiver-side half: received[m] = words delivered to machine m this
  /// round, summed across every shard (same-shard deliveries included).
  /// Throws CapacityError on a violation. Only called when
  /// needsInboundSums() is true.
  virtual void validateInbound(
      std::size_t numMachines,
      const std::vector<std::uint64_t>& received) const = 0;

  virtual Mode mode() const { return Mode::kDeliverAll; }
};

class MpcTopology final : public Topology {
 public:
  explicit MpcTopology(std::size_t wordsPerMachine)
      : wordsPerMachine_(wordsPerMachine) {}

  const char* name() const override { return "mpc"; }
  WireKind wireKind() const override { return WireKind::kMpc; }
  std::uint64_t wireParam() const override { return wordsPerMachine_; }
  std::size_t wordsPerMachine() const { return wordsPerMachine_; }
  std::size_t validateSlice(std::size_t numMachines,
                            const std::vector<std::vector<Message>>& outboxes,
                            std::size_t begin, std::size_t end) const override;
  std::size_t validateSources(
      std::size_t numMachines,
      const std::vector<std::vector<Message>>& sliceOutboxes,
      std::size_t begin) const override;
  bool needsInboundSums() const override { return true; }
  // Send budgets are source-side, receive budgets ride the inbound sums.
  void validateInbound(
      std::size_t numMachines,
      const std::vector<std::uint64_t>& received) const override;

 private:
  std::size_t wordsPerMachine_;
};

class CliqueTopology final : public Topology {
 public:
  const char* name() const override { return "clique"; }
  WireKind wireKind() const override { return WireKind::kClique; }
  std::size_t validateSlice(std::size_t numMachines,
                            const std::vector<std::vector<Message>>& outboxes,
                            std::size_t begin, std::size_t end) const override;
  std::size_t validateSources(
      std::size_t numMachines,
      const std::vector<std::vector<Message>>& sliceOutboxes,
      std::size_t begin) const override;
  // Pair-uniqueness and single-word checks are fully source-side.
  void validateInbound(std::size_t,
                       const std::vector<std::uint64_t>&) const override {}
};

class PramTopology final : public Topology {
 public:
  const char* name() const override { return "pram"; }
  WireKind wireKind() const override { return WireKind::kPram; }
  std::size_t validateSlice(std::size_t numMachines,
                            const std::vector<std::vector<Message>>& outboxes,
                            std::size_t begin, std::size_t end) const override;
  std::size_t validateSources(
      std::size_t numMachines,
      const std::vector<std::vector<Message>>& sliceOutboxes,
      std::size_t begin) const override;
  // Single-word cell writes are checked entirely at the source.
  void validateInbound(std::size_t,
                       const std::vector<std::uint64_t>&) const override {}
  Mode mode() const override { return Mode::kPriorityWrite; }
};

/// Rebuilds a topology from its wire descriptor (the inverse of
/// wireKind()/wireParam()); throws std::invalid_argument for kOpaque or an
/// unknown kind byte.
std::unique_ptr<Topology> makeWireTopology(std::uint8_t kind,
                                           std::uint64_t param);

}  // namespace mpcspan::runtime
