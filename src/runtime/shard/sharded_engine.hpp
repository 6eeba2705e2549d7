// ShardedEngine — the multi-process backend of runtime::RoundEngine.
//
// The simulated machines are partitioned into contiguous shards, each owned
// by a **resident** worker *process* running the work-stealing ThreadPool
// over its machine range. The workers start once per engine — lazily, at
// the first operation that needs them — through a tcp rendezvous
// (tcp_transport.hpp): each one, forked by this engine or attached from
// another host by `mpcspan_worker --connect`, runs attachTcpWorker and is
// provisioned by one SETUP frame with every kernel name and block
// registered up to that point. They then stay alive across rounds, driven
// by small control frames over the wire:
//
//   REGISTER_KERNEL  bind a kernel id to a globally registered name (ack'd);
//   STEP             one kernel round: compute shard-side, exchange the
//                    cross-shard sections worker to worker, commit into the
//                    worker-resident inboxes;
//   LOCAL / FETCH    free kernel phases (no round): per-machine local
//                    compute, per-machine state readout;
//   STORE/FETCH/FREE worker-owned BlockStore maintenance (DistVector);
//   SHUTDOWN         clean exit; the destructor sends it and reaps.
//
// Cross-shard sections travel over the tcp mesh the rendezvous forms (one
// connection per worker pair) under one STEP barrier, drawn in
// src/runtime/README.md: every worker steps its MachineSlice and reports
// its verdict and per-destination inbound word sums (no payload goes up
// the coordinator wire), ships its sections and installs the merged round
// into back buffers; the coordinator checks the summed receive budgets and
// broadcasts one epoch-tagged go/abort frame. An abort leaves resident
// state, the ledger and the workers untouched, and the coordinator rethrows
// the loud error. Delivery order is fixed by the serial merge rule, never
// by scheduling, so 1-shard, N-shard, 1-thread and N-thread runs of one
// workload stay bit-identical.
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "runtime/kernel.hpp"
#include "runtime/shard/transport.hpp"
#include "runtime/shard/wire.hpp"
#include "runtime/topology.hpp"
#include "runtime/types.hpp"

namespace mpcspan::runtime::shard {

class ShardedEngine {
 public:
  /// `kernels` (the registered kernel names, by id) and `blocks` are
  /// borrowed from the owning RoundEngine; whatever they hold at start()
  /// time provisions the workers through their SETUP frames, together with
  /// `topology`.
  /// `threadsPerShard` is the lane count of each worker's local pool
  /// (>= 1). `shards` must be in [2, numMachines] — a single shard is
  /// RoundEngine's in-process path. The engine forks one loopback worker
  /// per shard by default; MPCSPAN_TCP_REMOTE=1 awaits `mpcspan_worker`
  /// attaches instead. Both kinds run the same attachTcpWorker.
  ShardedEngine(std::size_t numMachines, std::size_t shards,
                std::size_t threadsPerShard, MpcTopology topology,
                const std::vector<std::string>* kernels = nullptr,
                BlockStore* blocks = nullptr);

  /// Sends SHUTDOWN to every resident worker and reaps it (EINTR-safe);
  /// never throws, never leaks a zombie.
  ~ShardedEngine();

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  std::size_t numShards() const { return shards_; }
  std::size_t threadsPerShard() const { return threadsPerShard_; }
  /// True once the resident workers have started (they start lazily, at
  /// the first round / kernel / block operation).
  bool started() const { return !workers_.empty(); }
  /// Pids of the live resident workers (empty before start()); stable
  /// across rounds — the acceptance check that forking happens once.
  std::vector<pid_t> workerPids() const;

  /// Machine range [shardBegin(s), shardEnd(s)) owned by shard s
  /// (shardRangeBegin, the one definition of the split).
  std::size_t shardBegin(std::size_t s) const;
  std::size_t shardEnd(std::size_t s) const { return shardBegin(s + 1); }

  /// Announces an engine-level registration to the running workers; no-op
  /// before start() (the provisioning carries the table). The workers
  /// resolve `name` against their registries and ack, so an unresolvable
  /// kernel fails loudly here, not mid-round.
  void announceKernel(std::size_t id, const std::string& name);

  /// One resident kernel round (the STEP barrier above). Writes the words
  /// moved to roundWords; deliveries land in the worker-resident inboxes.
  void stepKernel(std::size_t id, const std::vector<Word>& args,
                  std::size_t& roundWords);

  /// Free kernel phases (LOCAL / FETCH): no round, no ledger.
  void localKernel(std::size_t id, const std::vector<Word>& args);
  std::vector<std::vector<Word>> fetchKernel(std::size_t id,
                                             const std::vector<Word>& args);

  /// Worker-owned BlockStore maintenance. Before start() the blocks live in
  /// the coordinator's store and provision the workers; afterwards
  /// they move over the wire to the worker owning each machine.
  void storeBlocks(std::uint64_t handle,
                   std::vector<std::vector<Word>> perMachine);
  std::vector<std::vector<Word>> fetchBlocks(std::uint64_t handle);
  void freeBlocks(std::uint64_t handle);

  /// Ships every worker's resident inboxes back (free; diagnostics).
  std::vector<std::vector<Delivery>> fetchInboxes();

  /// The MPCSPAN_SHARDS env var, else 1. A value that is not a whole
  /// number in [1, kMaxThreads] throws std::invalid_argument.
  static std::size_t defaultShards();

 private:
  struct Worker {
    pid_t pid = -1;  // -1 for remote workers (not ours to reap)
    Channel fd;      // coordinator end of the worker's tcp control dial
  };

  /// Starts the resident workers if they are not running yet: listens,
  /// forks local workers that run attachTcpWorker (unless
  /// MPCSPAN_TCP_REMOTE=1), collects one control hello per shard, and
  /// answers each with the mesh roster and a SETUP frame. Throws ShardError
  /// if the backend already failed (a worker died earlier) or the
  /// rendezvous fails.
  void start();
  /// Marks the backend failed, best-effort shuts down and reaps every
  /// worker, and throws ShardError built from `what`.
  [[noreturn]] void fail(const std::string& what);
  /// Runs `io` and converts any ShardError into a backend failure.
  template <typename Fn>
  auto guarded(Fn&& io) -> decltype(io());
  void shutdownWorkers() noexcept;
  /// Sends `frameFor(s)` to every worker s, then reads one {kind, error}
  /// report from each and rethrows the first error in shard order.
  void requestAll(const std::function<WireWriter(std::size_t)>& frameFor);
  /// Sends `request` to every worker and gathers the per-machine blocks
  /// each answers for its range; rethrows the first error in shard order.
  std::vector<std::vector<Word>> fetchPerMachine(const WireWriter& request);

  std::size_t numMachines_;
  std::size_t shards_;
  std::size_t threadsPerShard_;
  MpcTopology topology_;
  /// Round epoch of the STEP conversation, incremented per attempt (aborts
  /// included) in lockstep with every worker's own counter; stamped into
  /// each kOpStep frame and echoed through reports/verdicts so a desynced
  /// stream fails loudly instead of committing round r's verdict against
  /// round r+1's state.
  std::uint64_t stepEpoch_ = 0;
  bool failed_ = false;
  const std::vector<std::string>* kernels_;  // owner: RoundEngine
  BlockStore* blocks_;                       // owner: RoundEngine
  std::vector<Worker> workers_;
};

}  // namespace mpcspan::runtime::shard
