// ShardedEngine — the multi-process backend of runtime::RoundEngine.
//
// The simulated machines are partitioned into contiguous shards, each owned
// by a **resident** worker *process* running the work-stealing ThreadPool
// over its machine range. The workers fork once per engine — lazily, at the
// first operation that needs them, so every kernel factory and block
// registered up to that point crosses in the fork snapshot — and then stay
// alive across rounds, driven by small control frames over the wire:
//
//   REGISTER_KERNEL  bind a kernel id to a name/factory (ack'd);
//   STEP             one kernel round: compute shard-side, exchange the
//                    cross-shard sections worker to worker, commit into the
//                    worker-resident inboxes;
//   LOCAL / FETCH    free kernel phases (no round): per-machine local
//                    compute, per-machine state readout;
//   EXCHANGE         one round whose outboxes were built coordinator-side
//                    (MpcSimulator::communicate): ship each worker its
//                    sources' outboxes plus the cross-shard messages for its
//                    destinations, validate, ship the deliveries back;
//   STORE/FETCH/FREE worker-owned BlockStore maintenance (DistVector);
//   SHUTDOWN         clean exit; the destructor sends it and reaps.
//
// Cross-shard sections travel over one of two transports: shared-memory
// rings between same-host workers (Transport::kShmRing; socketpairs only
// ring doorbells) or a tcp mesh formed by rendezvous (Transport::kTcp; the
// workers may live on other machines). Both run the same STEP barrier:
//   phase A  every worker runs kernel->step over its machines, buckets the
//            *cross-shard* messages into per-peer sections (own-destined
//            ones never leave), validates its own sources
//            (Topology::validateSources), and reports {verdict, epoch,
//            words, per-destination inbound word sums} — no payload goes
//            up the coordinator wire;
//   exchange right after its report, each worker ships its sections to the
//            destination workers and merges the inbound ones, in ascending
//            source-shard order, into *back-buffer* inboxes — before the
//            verdict exists;
//   verdict  the coordinator totals the inbound sums
//            (Topology::validateInbound) and broadcasts one epoch-tagged
//            go/abort frame. Go flips every worker's buffers; abort (a
//            kernel throw, a capacity violation anywhere) discards the back
//            buffers, so resident state, the ledger, and the workers are
//            untouched and the coordinator rethrows the loud error.
//
// The coordinator therefore only arbitrates the barrier: its per-round
// traffic is O(shards) bytes regardless of the payload volume.
//
// Delivery order is fixed by that serial merge rule — never by process or
// thread scheduling — so 1-shard, N-shard, 1-thread, N-thread runs of one
// workload stay bit-identical: same rounds, same ledger, same contents.
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <memory>
#include <vector>

#include "runtime/kernel.hpp"
#include "runtime/shard/transport.hpp"
#include "runtime/shard/wire.hpp"
#include "runtime/topology.hpp"
#include "runtime/types.hpp"

namespace mpcspan::runtime::shard {

class ShmArena;

class ShardedEngine {
 public:
  /// `topology`, `kernels`, and `blocks` are borrowed from the owning
  /// RoundEngine; the worker fork snapshots whatever they hold at start()
  /// time (kernels registered and blocks created before the first sharded
  /// operation cross for free). `threadsPerShard` is the lane count of each
  /// worker's local pool (>= 1). `shards` must be in [2, numMachines] — a
  /// single shard is RoundEngine's in-process path. `transport` picks the
  /// section route described above; kTcp forks loopback workers by default,
  /// and MPCSPAN_TCP_REMOTE=1 awaits `mpcspan_worker` attaches instead.
  ShardedEngine(std::size_t numMachines, std::size_t shards,
                std::size_t threadsPerShard, const Topology* topology,
                const std::vector<KernelRegistration>* kernels = nullptr,
                BlockStore* blocks = nullptr,
                Transport transport = Transport::kShmRing);

  /// Sends SHUTDOWN to every resident worker and reaps it (EINTR-safe);
  /// never throws, never leaks a zombie.
  ~ShardedEngine();

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  std::size_t numShards() const { return shards_; }
  std::size_t threadsPerShard() const { return threadsPerShard_; }
  /// The cross-shard section route.
  Transport transport() const { return transport_; }
  /// True once the resident workers have forked (they fork lazily, at the
  /// first round / kernel / block operation).
  bool started() const { return !workers_.empty(); }
  /// Pids of the live resident workers (empty before start()); stable
  /// across rounds — the acceptance check that forking happens once.
  std::vector<pid_t> workerPids() const;

  /// Machine range [shardBegin(s), shardEnd(s)) owned by shard s, and the
  /// inverse map (the one definition of the balanced contiguous split —
  /// the coordinator's cross-shard bucketing and the workers' range checks
  /// must never drift apart).
  std::size_t shardBegin(std::size_t s) const;
  std::size_t shardEnd(std::size_t s) const { return shardBegin(s + 1); }
  std::size_t shardOf(std::size_t machine) const;

  /// One sharded synchronous round over coordinator-built outboxes (the
  /// EXCHANGE op). Returns the per-machine inboxes and writes the words
  /// moved to `roundWords` (the caller owns the ledger); the workers'
  /// resident inboxes are left alone. Throws CapacityError /
  /// std::invalid_argument exactly as the in-process path would, and
  /// ShardError if a worker dies.
  std::vector<std::vector<Delivery>> exchange(
      const std::vector<std::vector<Message>>& outboxes,
      std::size_t& roundWords);

  /// Announces an engine-level registration to the running workers; no-op
  /// before start() (the fork snapshot carries the table). The workers
  /// resolve `name` against their registries and ack, so an unresolvable
  /// kernel fails loudly here, not mid-round.
  void registerKernel(std::size_t id, const std::string& name);

  /// One resident kernel round (the STEP barrier above). Writes the words
  /// moved to roundWords; deliveries land in the worker-resident inboxes.
  /// With `freePlacement` the round is a data-placement shuffle
  /// (RoundEngine::stepShuffle): same barrier and delivery order, but no
  /// topology validation, deliver-all even under priority-write, and
  /// roundWords stays 0 — the caller must not charge the ledger.
  void stepKernel(std::size_t id, const std::vector<Word>& args,
                  std::size_t& roundWords, bool freePlacement = false);

  /// Free kernel phases (LOCAL / FETCH): no round, no ledger.
  void localKernel(std::size_t id, const std::vector<Word>& args);
  std::vector<std::vector<Word>> fetchKernel(std::size_t id,
                                             const std::vector<Word>& args);

  /// Worker-owned BlockStore maintenance. Before start() the blocks live in
  /// the coordinator's store and cross with the fork snapshot; afterwards
  /// they move over the wire to the worker owning each machine.
  void storeBlocks(std::uint64_t handle,
                   std::vector<std::vector<Word>> perMachine);
  std::vector<std::vector<Word>> fetchBlocks(std::uint64_t handle);
  void freeBlocks(std::uint64_t handle);

  /// Ships every worker's resident inboxes back (free; diagnostics).
  std::vector<std::vector<Delivery>> fetchInboxes();

  /// The MPCSPAN_SHARDS env var (clamped to >= 1), else 1.
  static std::size_t defaultShards();

 private:
  struct Worker {
    pid_t pid = -1;  // -1 for remote tcp workers (not ours to reap)
    Channel fd;      // coordinator end: socketpair, or the tcp control dial
  };

  /// Forks (or, for kTcp, rendezvouses) the resident workers if they are
  /// not running yet. Throws ShardError if the backend already failed (a
  /// worker died earlier) or the shm arena cannot be mapped.
  void start();
  /// The kTcp half of start(): listens, forks local workers (unless
  /// MPCSPAN_TCP_REMOTE=1), collects one control hello per shard, answers
  /// with the mesh roster (+ SETUP frames for remote attaches).
  void startTcp();
  /// Body of a locally forked kTcp worker: dial the rendezvous, handshake,
  /// form the mesh, run the command loop.
  void tcpWorkerMain(std::size_t s, std::uint16_t port, std::uint64_t epoch,
                     int deadlineMs);
  /// Marks the backend failed, best-effort shuts down and reaps every
  /// worker, and throws ShardError built from `what`.
  [[noreturn]] void fail(const std::string& what);
  /// Runs `io` and converts any ShardError into a backend failure.
  template <typename Fn>
  auto guarded(Fn&& io) -> decltype(io());
  void shutdownWorkers() noexcept;

  /// Runs shard s's command loop (worker_loop.hpp) in the child after
  /// building its WorkerConfig and the fork-snapshot state (kernel table
  /// copy, the shard's BlockStore slice). `peers` is this worker's row of
  /// the doorbell (shm) or tcp mesh.
  void runSnapshotWorker(std::size_t s, Channel& ctrl,
                         std::vector<WireFd>& peers, int meshTimeoutMs);

  std::size_t numMachines_;
  std::size_t shards_;
  std::size_t threadsPerShard_;
  const Topology* topology_;
  Transport transport_;
  /// Round epoch of the STEP conversation, incremented per attempt (aborts
  /// included) in lockstep with every worker's own counter; stamped into
  /// each kOpStep frame and echoed through reports/verdicts so a desynced
  /// stream fails loudly instead of committing round r's verdict against
  /// round r+1's state.
  std::uint64_t stepEpoch_ = 0;
  bool failed_ = false;
  /// The pre-fork shared-memory arena (kShmRing only); inherited by every
  /// worker's address space, coordinator-held for teardown.
  std::unique_ptr<ShmArena> shmArena_;
  const std::vector<KernelRegistration>* kernels_;  // owner: RoundEngine
  BlockStore* blocks_;                              // owner: RoundEngine
  std::vector<Worker> workers_;
};

}  // namespace mpcspan::runtime::shard
