// Constant-round MPC primitives on top of MpcSimulator, after [GSZ11] and
// the aggregation-tree subroutines of [DN19] cited in Section 6:
//
//   distSort        — sample sort: local sort, sample to coordinator,
//                     splitter broadcast down a B-ary tree, one all-to-all
//                     partition route, local merge. O(1/gamma) rounds.
//   treeBroadcast   — B-ary broadcast of a payload from machine 0.
//   segmentedMinSorted — per-key minimum over key-sorted data: local reduce,
//                     then a machine-0 boundary fix-up for keys that span
//                     machine boundaries. This is the "Find Minimum"
//                     subroutine the spanner algorithms charge per
//                     iteration (Lemma 6.1).
//
// All primitives move real words through engine rounds, so round counts and
// capacity violations are genuine, not estimated. Items must be trivially
// copyable.
//
// All three execute as *registered kernels* (sort_kernels.hpp): the
// DistVector blocks they operate on live beside the machines — inside the
// resident shard workers when the engine is sharded — and every phase (local sort, sampling, splitter fan-out, the all-to-all
// route, boundary fix-ups) builds and validates its outboxes shard-side;
// the host only drives the phase schedule. The comparators therefore cross
// the process boundary *by type*: they must be stateless (capture-free)
// function objects, default-constructed inside each worker. In exchange,
// per-machine state persists worker-side across all phases and rounds, and
// the results are bit-identical to the in-process engine for every thread
// and shard count.
#pragma once

#include <algorithm>
#include <type_traits>
#include <utility>
#include <vector>

#include "runtime/pack.hpp"
#include "mpc/simulator.hpp"
#include "mpc/sort_kernels.hpp"

namespace mpcspan {

/// The per-machine item capacity of a DistVector block: machine m holds
/// items [m * cap, (m+1) * cap) of the logical sequence.
template <typename T>
std::size_t distVectorCapItems(const MpcSimulator& sim) {
  return std::max<std::size_t>(1,
                               sim.wordsPerMachine() / (2 * wordsPerItem<T>()));
}

/// A vector of T sharded in blocks across the simulator's machines. The
/// blocks are owned by a MachineSlice's BlockStore — the engine's own under
/// a 1-shard engine, each resident worker's when sharded — and are
/// addressed by handle(); collectHostSide()/blocksHostSide() fetch copies
/// back for tests and host-side readout (free — never part of a simulated
/// algorithm).
template <typename T>
class DistVector {
 public:
  DistVector(MpcSimulator& sim, const std::vector<T>& data)
      : sim_(&sim), size_(data.size()) {
    const std::size_t machines = sim.numMachines();
    const std::size_t capItems = distVectorCapItems<T>(sim);
    // Block boundaries first (cheap, serial), then a parallel pack.
    std::vector<std::pair<std::size_t, std::size_t>> spans(machines, {0, 0});
    std::size_t cursor = 0;
    for (std::size_t m = 0; m < machines && cursor < data.size(); ++m) {
      const std::size_t take = std::min(capItems, data.size() - cursor);
      spans[m] = {cursor, take};
      cursor += take;
    }
    if (cursor < data.size())
      throw CapacityError("DistVector: data does not fit in the cluster");
    std::vector<std::vector<Word>> blocks(machines);
    sim.engine().parallelFor(machines, [&](std::size_t m) {
      const auto [begin, take] = spans[m];
      blocks[m] = packItems(data.data() + begin, take);
    });
    handle_ = sim.engine().createBlocks(std::move(blocks));
  }

  ~DistVector() {
    if (!sim_) return;
    try {
      sim_->engine().freeBlocks(handle_);
    } catch (...) {
      // A dead shard backend already surfaced loudly on the round that
      // killed it; freeing afterwards must not terminate.
    }
  }

  DistVector(const DistVector&) = delete;
  DistVector& operator=(const DistVector&) = delete;
  DistVector(DistVector&& o) noexcept
      : sim_(o.sim_), size_(o.size_), handle_(o.handle_) {
    o.sim_ = nullptr;
  }

  MpcSimulator& sim() const { return *sim_; }
  std::size_t size() const { return size_; }
  /// BlockStore handle of the per-machine blocks (kernel args).
  std::uint64_t handle() const { return handle_; }

  /// Per-machine blocks, copied host-side (free; tests/diagnostics).
  std::vector<std::vector<T>> blocksHostSide() const {
    const std::vector<std::vector<Word>> raw =
        sim_->engine().readBlocks(handle_);
    std::vector<std::vector<T>> out(raw.size());
    for (std::size_t m = 0; m < raw.size(); ++m) out[m] = unpackItems<T>(raw[m]);
    return out;
  }

  /// Test/diagnostic helper: concatenates all blocks host-side. Charges no
  /// rounds — never part of a simulated algorithm.
  std::vector<T> collectHostSide() const {
    std::vector<T> out;
    out.reserve(size_);
    for (const std::vector<T>& block : blocksHostSide())
      out.insert(out.end(), block.begin(), block.end());
    return out;
  }

 private:
  MpcSimulator* sim_;
  std::size_t size_;
  std::uint64_t handle_ = 0;
};

/// Broadcasts `payload` from machine 0 to every machine along a B-ary tree
/// with the largest branching the capacity allows (the fanTargets
/// schedule). Returns rounds used; afterwards every machine's
/// BroadcastKernel fetch() holds the payload.
inline std::size_t treeBroadcastWords(MpcSimulator& sim,
                                      const std::vector<Word>& payload) {
  const std::size_t p = sim.numMachines();
  if (p <= 1) return 0;
  if (payload.size() > sim.wordsPerMachine())
    throw CapacityError("treeBroadcastWords: payload exceeds machine memory");
  const std::size_t branch = fanBranch(sim.wordsPerMachine(), payload.size());
  runtime::RoundEngine& eng = sim.engine();
  const runtime::KernelId k = runtime::ensureKernel<BroadcastKernel>(eng);
  // Machine 0 reads the payload from its worker-resident block; kernel
  // args reach every machine, so they must not carry it.
  std::vector<std::vector<Word>> staged(p);
  staged[0] = payload;
  const runtime::BlockLease lease(eng, eng.createBlocks(std::move(staged)));
  std::size_t rounds = 0;
  for (std::size_t holders = 1; holders < p;
       holders = fanNextHolders(p, holders, branch), ++rounds)
    eng.step(k, {lease.handle(), holders, branch});
  eng.stepLocal(k);
  return rounds;
}

/// Distributed sample sort. cmp must be a strict weak order and a stateless
/// (capture-free) function object — it is default-constructed inside each
/// shard worker.
template <typename T, typename Cmp>
void distSort(DistVector<T>& dv, Cmp cmp) {
  static_assert(std::is_empty_v<Cmp>,
                "distSort: the comparator crosses into resident worker "
                "processes by type — use a stateless (capture-free) function "
                "object");
  (void)cmp;
  MpcSimulator& sim = dv.sim();
  runtime::RoundEngine& eng = sim.engine();
  const std::size_t p = eng.numMachines();
  const runtime::KernelId k = runtime::ensureKernel<SortKernel<T, Cmp>>(eng);
  eng.stepLocal(k, {kSortPhaseSortLocal, dv.handle()});  // local, free
  if (p <= 1 || dv.size() <= 1) return;
  // One-level sample sort: every machine must hold the p-1 splitters.
  // MpcConfig::forInput guarantees this; hand-built configs must too.
  if ((p - 1) * wordsPerItem<T>() > sim.wordsPerMachine())
    throw CapacityError(
        "distSort: splitter set exceeds machine memory (need wordsPerMachine >= "
        "numMachines * item words; see MpcConfig::forInput)");

  // Round 1: evenly spaced local samples to machine 0.
  const std::size_t perMachineSamples = std::max<std::size_t>(
      1, std::min<std::size_t>(
             32, sim.wordsPerMachine() / (wordsPerItem<T>() * p)));
  eng.step(k, {kSortPhaseSample, dv.handle(), perMachineSamples});

  // Machine 0 picks the p-1 splitters and fans them down the B-ary
  // fanTargets schedule (the one treeBroadcastWords runs). The driver
  // replays the holder arithmetic only to know how many fan rounds to issue.
  const std::size_t branch =
      fanBranch(sim.wordsPerMachine(), (p - 1) * wordsPerItem<T>());
  eng.step(k, {kSortPhasePickAndFan, dv.handle(), branch});
  for (std::size_t holders = fanNextHolders(p, 1, branch); holders < p;
       holders = fanNextHolders(p, holders, branch))
    eng.step(k, {kSortPhaseFanForward, dv.handle(), holders, branch});

  // One all-to-all: machine j receives keys in (splitter[j-1], splitter[j]],
  // then merges locally (free).
  eng.step(k, {kSortPhaseRoute, dv.handle()});
  eng.stepLocal(k, {kSortPhaseMergeRoute, dv.handle()});
}

/// Per-key minimum over data already key-sorted across machines (machine
/// order = key order, e.g. right after distSort by key). keyOf maps an item
/// to a 64-bit key; better(a, b) returns true when a beats b; both must be
/// stateless (capture-free) function objects. Returns the reduced
/// key-sorted sequence (one item per key), collected host-side; the
/// simulated traffic is the cross-machine boundary fix-up.
template <typename T, typename KeyOf, typename Better>
std::vector<T> segmentedMinSorted(DistVector<T>& dv, KeyOf keyOf, Better better) {
  static_assert(std::is_empty_v<KeyOf> && std::is_empty_v<Better>,
                "segmentedMinSorted: keyOf/better cross into resident worker "
                "processes by type — use stateless (capture-free) function "
                "objects");
  (void)keyOf;
  (void)better;
  MpcSimulator& sim = dv.sim();
  runtime::RoundEngine& eng = sim.engine();
  const std::size_t p = eng.numMachines();
  const runtime::KernelId k =
      runtime::ensureKernel<SegMinKernel<T, KeyOf, Better>>(eng);
  eng.stepLocal(k, {kSegPhaseReduce, dv.handle()});  // local, free

  if (p > 1) {
    // Round 1: first/last representative of every non-empty machine to
    // machine 0; round 2: machine 0 resolves the key runs spanning machine
    // boundaries and sends the fix-ups back; applying them is free.
    const std::size_t rec = 2 * wordsPerItem<T>() + 1;
    if (p * rec > sim.wordsPerMachine())
      throw CapacityError("segmentedMinSorted: boundary set exceeds capacity");
    eng.step(k, {kSegPhaseBoundary});
    eng.step(k, {kSegPhaseFix});
    eng.stepLocal(k, {kSegPhaseApply});
  }

  std::vector<T> result;
  result.reserve(dv.size());
  for (const std::vector<Word>& packed : eng.fetchKernel(k)) {
    const std::vector<T> items = unpackItems<T>(packed);
    result.insert(result.end(), items.begin(), items.end());
  }
  return result;
}

}  // namespace mpcspan
