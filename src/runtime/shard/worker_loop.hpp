// The resident worker's command loop, extracted from ShardedEngine so that
// every worker process runs the same one. Every worker — a loopback child
// the engine forked and a remote `mpcspan_worker --connect host:port
// --shard k` alike — runs attachTcpWorker (tcp_transport.hpp) and is
// provisioned by one SETUP frame (kOpSetup): the engine's dimensions, the
// MPC word budget, the kernel table and its slice of the block store.
//
// The kernel table is names only: a kernel is a name in the process-global
// registry (runtime/kernel.hpp), which every worker resolves in its own
// process. The loop speaks the protocol.hpp control frames over `ctrl` and
// exchanges cross-shard sections with its peers over the tcp mesh; its
// observable behavior (delivery order, validation, error surface) matches
// the in-process engine bit for bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "runtime/kernel.hpp"
#include "runtime/shard/transport.hpp"
#include "runtime/topology.hpp"
#include "runtime/types.hpp"

namespace mpcspan::runtime::shard {

/// The balanced contiguous machine split shared by the coordinator and the
/// workers (the one definition — the coordinator's per-shard frames and the
/// workers' bucketing and range checks must never drift apart).
std::size_t shardRangeBegin(std::size_t numMachines, std::size_t shards,
                            std::size_t s);
inline std::size_t shardRangeEnd(std::size_t numMachines, std::size_t shards,
                                 std::size_t s) {
  return shardRangeBegin(numMachines, shards, s + 1);
}
std::size_t shardOfMachine(std::size_t numMachines, std::size_t shards,
                           std::size_t machine);

/// Everything the command loop needs to know about its place in the engine.
struct WorkerConfig {
  std::size_t numMachines = 0;
  std::size_t shards = 0;
  std::size_t shard = 0;
  std::size_t threads = 1;
  MpcTopology topology{0};
  /// Total communication budget of one round's peer-exchange waits (ms;
  /// < 0 = unbounded); attachTcpWorker passes its channel deadline. Seeded
  /// into one DeadlineBudget per round — shared across every wait, so a
  /// trickling peer spends it rather than resetting it.
  int meshTimeoutMs = -1;
};

/// Runs the resident command loop until SHUTDOWN or wire EOF (both return
/// cleanly; protocol violations and transport corruption throw out as the
/// caller's exit-status policy dictates). `ctrl` is the coordinator
/// channel; `peers` is this worker's mesh row. `kernels` (registered names,
/// by kernel id) and `store` are the state the loop adopts; `store` is
/// caller-owned because BlockStore is non-copyable and a worker
/// materializes it straight off the wire.
void runResidentWorker(const WorkerConfig& cfg, Channel& ctrl,
                       std::vector<WireFd>& peers,
                       std::vector<std::string> kernels, BlockStore& store);

/// Plausibility caps of a SETUP frame: a machine count or lane count
/// beyond these can only be a garbled field, and is rejected before
/// anything is sized by it.
constexpr std::uint64_t kMaxSetupMachines = 1ull << 24;
constexpr std::uint64_t kMaxSetupThreads = 1ull << 10;

/// Coordinator side of provisioning: one kOpSetup frame carrying
/// dimensions, the topology's wordsPerMachine, the kernel names, and shard
/// `shard`'s slice of the block store.
void sendWorkerSetup(Channel& ch, std::size_t numMachines, std::size_t shards,
                     std::size_t shard, std::size_t threads,
                     const MpcTopology& topology,
                     const std::vector<std::string>* kernels,
                     const BlockStore* blocks);

/// What readWorkerSetup materializes from the frame.
struct WorkerSetup {
  WorkerConfig cfg;
  std::vector<std::string> kernels;
  std::unique_ptr<BlockStore> store;
};

/// Worker side: reads the kOpSetup frame off `ch` and rebuilds the
/// provisioned state. Every wire-supplied size is vetted against the
/// caps above and the bytes left in the frame before anything is sized by
/// it; a malformed frame (or a frame that is not kOpSetup) throws
/// ShardError.
WorkerSetup readWorkerSetup(Channel& ch);

}  // namespace mpcspan::runtime::shard
