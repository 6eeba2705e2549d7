// RoundEngine — the round-synchronous runtime that simulates the MPC model.
//
// The engine owns a set of simulated machines, the MpcTopology that says
// what a legal round is (per-machine send and receive budgets), a
// work-stealing thread pool that steps machines in parallel *within* a
// round, and the round/traffic ledger. With EngineConfig::shards > 1 (or
// MPCSPAN_SHARDS) the machines are partitioned over worker processes
// instead — resident ones that start once per engine, join a tcp mesh, and
// are driven by control frames (see runtime/shard/sharded_engine.hpp) —
// behind this same interface. Message
// delivery is deterministic: every inbox holds its deliveries in (source
// id, send position) order regardless of the thread or shard count, so
// 1-thread, N-thread, 1-shard, and N-shard runs of the same workload are
// bit-identical — rounds, traffic totals, and message contents
// (tests/test_golden.cc pins them).
//
// Machines step through registered kernels (runtime/kernel.hpp):
// registerKernel binds a globally registered kernel name to a KernelId,
// step(KernelId, args) drives one round, and the kernel instance lives
// *where the machines live* — inside each resident worker — owning
// per-machine state (inboxes, BlockStore blocks) across rounds without ever
// re-shipping it.
//
// MpcSimulator is the model-specific facade over this class; the Congested
// Clique and PRAM costs are formulas, not engine rounds. See
// src/runtime/README.md for the design.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "runtime/kernel.hpp"
#include "runtime/thread_pool.hpp"
#include "runtime/topology.hpp"
#include "runtime/types.hpp"

namespace mpcspan::runtime {

namespace shard {
class ShardedEngine;
}

struct EngineConfig {
  std::size_t numMachines = 0;
  /// Lanes of the stepping pool, including the caller; 0 selects the
  /// default (MPCSPAN_THREADS env var, else hardware concurrency).
  std::size_t threads = 0;
  /// Worker processes the machines are partitioned over. 1 runs everything
  /// in-process (the single-node special case); 0 selects the default
  /// (MPCSPAN_SHARDS env var, else 1). Clamped to numMachines. Sharded or
  /// not, the same workload is bit-identical — rounds, ledger, contents.
  /// The workers are forked loopback processes, or remote ones attached
  /// with MPCSPAN_TCP_REMOTE=1 + `mpcspan_worker --connect`.
  std::size_t shards = 0;
};

class RoundEngine {
 public:
  RoundEngine(EngineConfig cfg, MpcTopology topology);
  ~RoundEngine();

  std::size_t numMachines() const { return numMachines_; }
  /// Worker processes executing the rounds (1 = in-process).
  std::size_t numShards() const;
  /// The multi-process backend, null when in-process (introspection: worker
  /// pids, shard ranges).
  const shard::ShardedEngine* shardBackend() const { return shard_.get(); }
  ThreadPool& pool() { return pool_; }

  std::size_t rounds() const { return ledger_.rounds; }
  std::size_t totalWordsSent() const { return ledger_.wordsSent; }
  std::size_t maxRoundWords() const { return ledger_.maxRoundWords; }

  // --- Registered kernels: the resident step path. ---

  /// Registers the globally registered kernel `name` (GlobalKernelRegistrar;
  /// ensureKernel<K> is the usual spelling) on this engine, before or after
  /// the resident workers start: every worker resolves the name against its
  /// own process-global registry. Throws std::invalid_argument if `name` is
  /// not globally registered or is already registered on this engine.
  KernelId registerKernel(std::string name);
  /// The id `name` was registered under, or an invalid id.
  KernelId findKernel(const std::string& name) const;

  /// One synchronous round — the only kind the ledger charges: the kernel
  /// steps every machine where that machine lives (in-process, or inside
  /// its resident worker), the outboxes are validated against the topology
  /// (an unknown destination throws std::invalid_argument, a model
  /// violation CapacityError), and the deliveries land in the machines'
  /// resident inboxes in (src, send-position) order. Sharded, the inboxes
  /// stay worker-owned (use snapshotInboxes() or fetchKernel() to observe
  /// state). `args` is broadcast to every machine. A throw — kernel or
  /// validation — aborts the round for all shards: ledger and inboxes
  /// untouched, engine and workers still usable.
  void step(KernelId kernel, std::vector<Word> args = {});
  /// A free local phase: kernel.local on every machine, no round, no
  /// messages, no ledger (the "local computation is free" half of the MPC
  /// model).
  void stepLocal(KernelId kernel, std::vector<Word> args = {});
  /// Per-machine kernel.fetch readout (free; host-side collection).
  std::vector<std::vector<Word>> fetchKernel(KernelId kernel,
                                             std::vector<Word> args = {});

  // --- Worker-owned block storage (DistVector backing). ---

  /// Ships perMachine[m] to machine m's owner and returns the handle.
  /// Blocks live beside the kernels: in-process in the engine's own store,
  /// sharded inside the resident workers (created before the workers start,
  /// they provision them through the SETUP frames).
  std::uint64_t createBlocks(std::vector<std::vector<Word>> perMachine);
  std::vector<std::vector<Word>> readBlocks(std::uint64_t handle);
  void freeBlocks(std::uint64_t handle);

  /// Every machine's resident inbox, fetched from wherever it lives.
  std::vector<std::vector<Delivery>> snapshotInboxes();

  /// Deterministic parallel loop on the engine's pool. fn must write to
  /// disjoint outputs; then the result is identical for every thread count.
  void parallelFor(std::size_t n, const std::function<void(std::size_t)>& fn) {
    pool_.parallelFor(n, fn);
  }

 private:
  StepKernel& ensureKernelInstance(KernelId kernel);
  /// In-process delivery into inboxes_ in (src, send-position) order: the
  /// round is validated first, then the ledger charged.
  void deliver(std::vector<std::vector<Message>> outboxes);

  std::size_t numMachines_;
  MpcTopology topology_;
  ThreadPool pool_;
  Accounting ledger_;
  std::vector<std::vector<Delivery>> inboxes_;  // in-process only
  /// True once kernel rounds ran on the sharded backend, so the
  /// authoritative inboxes live in the workers.
  bool inboxesResident_ = false;
  std::vector<std::string> kernels_;  // registered names, by KernelId
  std::vector<std::unique_ptr<StepKernel>> kernelInstances_;  // in-process
  BlockStore store_;  // in-process blocks; pre-start staging when sharded
  std::uint64_t nextBlockHandle_ = 1;
  /// Multi-process backend; null when shards resolve to 1 (in-process).
  std::unique_ptr<shard::ShardedEngine> shard_;
};

/// RAII lease on a createBlocks() handle for kernel drivers that stage
/// worker-resident blocks across several phases: the blocks are freed on
/// scope exit — including a thrown, aborted round, which by contract leaves
/// the engine usable, so a driver that retries must not accumulate dead
/// blocks in the workers.
class BlockLease {
 public:
  BlockLease(RoundEngine& eng, std::uint64_t handle)
      : eng_(&eng), handle_(handle) {}
  BlockLease(const BlockLease&) = delete;
  BlockLease& operator=(const BlockLease&) = delete;
  ~BlockLease() {
    if (!eng_) return;
    try {
      eng_->freeBlocks(handle_);
    } catch (...) {
      // A dead shard backend already surfaced loudly; freeing afterwards
      // must not terminate (same policy as DistVector's destructor).
    }
  }

  std::uint64_t handle() const { return handle_; }

 private:
  RoundEngine* eng_;
  std::uint64_t handle_;
};

/// Finds or registers kernel K on the engine. odr-using the global
/// registrar plants K's factory in every process at static initialization,
/// so every resident worker — forked, or attached from another host running
/// the same binary — can construct K by name, whenever this call happens.
/// K needs a static kernelName() and a default constructor (the
/// GlobalKernelRegistrar contract).
template <class K>
KernelId ensureKernel(RoundEngine& eng) {
  (void)&globalKernelRegistrar<K>;
  const std::string name = K::kernelName();
  if (const KernelId id = eng.findKernel(name); id.valid()) return id;
  return eng.registerKernel(name);
}

}  // namespace mpcspan::runtime
