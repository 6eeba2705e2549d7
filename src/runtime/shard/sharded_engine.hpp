// ShardedEngine — the multi-process backend of runtime::RoundEngine.
//
// The simulated machines are partitioned into contiguous shards, each owned
// by a **resident** worker *process* running the work-stealing ThreadPool
// over its machine range. The workers start with the engine, in its
// constructor, through a tcp rendezvous (tcp_transport.hpp): each one,
// forked by this engine or attached from another host by `mpcspan_worker
// --connect`, runs attachTcpWorker and learns its place from one SETUP
// frame (dimensions and word budget). A sharded engine never exists
// without its workers, so kernels and blocks reach them one way, over
// the control frames that drive them for the engine's lifetime:
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

#include "runtime/shard/transport.hpp"
#include "runtime/shard/wire.hpp"
#include "runtime/topology.hpp"
#include "runtime/types.hpp"

namespace mpcspan::runtime::shard {

class ShardedEngine {
 public:
  /// Starts the resident workers and returns once every one is attached:
  /// listens, forks one loopback worker per shard running attachTcpWorker
  /// (MPCSPAN_TCP_REMOTE=1 forks nothing and awaits `mpcspan_worker
  /// --connect` attaches instead), collects one control hello per shard,
  /// and answers each with the mesh roster and a SETUP frame. A failed
  /// rendezvous throws ShardError and leaves no worker behind.
  /// `threadsPerShard` is the lane count of each worker's local pool
  /// (>= 1). `shards` must be in [2, numMachines] — a single shard is
  /// RoundEngine's in-process path.
  ShardedEngine(std::size_t numMachines, std::size_t shards,
                std::size_t threadsPerShard, MpcTopology topology);

  /// Sends SHUTDOWN to every resident worker and reaps it (EINTR-safe);
  /// never throws, never leaks a zombie.
  ~ShardedEngine();

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  std::size_t numShards() const { return shards_; }
  std::size_t threadsPerShard() const { return threadsPerShard_; }
  /// Pids of the live resident workers (empty once the backend failed);
  /// stable across rounds — the acceptance check that forking happens once.
  std::vector<pid_t> workerPids() const;

  /// Machine range [shardBegin(s), shardEnd(s)) owned by shard s
  /// (shardRangeBegin, the one definition of the split).
  std::size_t shardBegin(std::size_t s) const;
  std::size_t shardEnd(std::size_t s) const { return shardBegin(s + 1); }

  /// Registers kernel `name` under `id` on every worker. The workers
  /// resolve `name` against their registries, build the instance and ack,
  /// so a kernel that cannot be built fails loudly here, not mid-round.
  void announceKernel(std::size_t id, const std::string& name);

  /// One resident kernel round (the STEP barrier above). Writes the words
  /// moved to roundWords; the rows land in the worker-resident inboxes.
  void stepKernel(std::size_t id, const std::vector<Word>& args,
                  std::size_t& roundWords);

  /// Free kernel phases (LOCAL / FETCH): no round, no ledger.
  void localKernel(std::size_t id, const std::vector<Word>& args);
  std::vector<std::vector<Word>> fetchKernel(std::size_t id,
                                             const std::vector<Word>& args);

  /// Worker-owned BlockStore maintenance: the blocks move over the wire
  /// (writeBlockSlice) to the worker owning each machine.
  void storeBlocks(std::uint64_t handle,
                   std::vector<std::vector<Word>> perMachine);
  std::vector<std::vector<Word>> fetchBlocks(std::uint64_t handle);
  void freeBlocks(std::uint64_t handle);

  /// Ships every worker's resident inboxes back (free; diagnostics).
  std::vector<WordRows> fetchInboxes();

  /// The MPCSPAN_SHARDS env var, else 1. A value that is not a whole
  /// number in [1, kMaxThreads] throws std::invalid_argument.
  static std::size_t defaultShards();

 private:
  struct Worker {
    pid_t pid = -1;  // -1 for remote workers (not ours to reap)
    Channel fd;      // coordinator end of the worker's tcp control dial
  };

  /// Marks the backend failed, best-effort shuts down and reaps every
  /// worker, and throws ShardError built from `what`.
  [[noreturn]] void fail(const std::string& what);
  /// Runs `io` and converts any ShardError into a backend failure. Once
  /// the backend failed, throws ShardError without running `io`.
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
  std::vector<Worker> workers_;
};

}  // namespace mpcspan::runtime::shard
