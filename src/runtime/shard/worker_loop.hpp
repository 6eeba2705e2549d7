// The resident worker's command loop, extracted from ShardedEngine so that
// every worker process runs the same one. Every worker — a loopback child
// the engine forked and a remote `mpcspan_worker --connect host:port
// --shard k` alike — runs attachTcpWorker (tcp_transport.hpp) and learns
// its place from one SETUP frame (kOpSetup): the engine's dimensions and
// the MPC word budget. It starts with no kernel and no block; both arrive
// one way, over the control frames: REGISTER_KERNEL carries a name in the
// process-global registry (runtime/kernel.hpp), which every worker resolves
// in its own process, and STORE carries a block slice (writeBlockSlice).
// The loop speaks the protocol.hpp control frames over `ctrl` and
// exchanges cross-shard sections with its peers over the tcp mesh. Its
// rounds run on a MachineSlice over the shard's range — the executor the
// in-process engine runs over every machine — so kernel steps, checks and
// delivery order match the in-process engine bit for bit by construction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "runtime/kernel.hpp"
#include "runtime/shard/transport.hpp"
#include "runtime/shard/wire.hpp"
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
/// channel; `peers` is this worker's mesh row.
void runResidentWorker(const WorkerConfig& cfg, Channel& ctrl,
                       std::vector<WireFd>& peers);

/// The STORE frame's body after its opcode: u64 handle, then one
/// `u64 len | len words` row per machine m in [lo, hi) (perMachine[m]).
void writeBlockSlice(WireWriter& w, std::uint64_t handle,
                     const std::vector<std::vector<Word>>& perMachine,
                     std::size_t lo, std::size_t hi);
/// Decodes a writeBlockSlice body into a new handle of `store` and returns
/// the handle. Each length is checked against the bytes left before a block
/// is sized by it, and a short body or bytes past the last row throw
/// ShardError; a handle `store` already holds throws std::invalid_argument.
std::uint64_t readBlockSlice(WireReader& r, std::size_t lo, std::size_t hi,
                             BlockStore& store);

/// Plausibility caps of a SETUP frame: a machine count beyond this, or a
/// lane count beyond kMaxThreads (thread_pool.hpp), can only be a garbled
/// field, and is rejected before anything is sized by it.
constexpr std::uint64_t kMaxSetupMachines = 1ull << 24;

/// Coordinator side of provisioning: one kOpSetup frame carrying shard
/// `shard`'s dimensions and the topology's wordsPerMachine.
void sendWorkerSetup(Channel& ch, std::size_t numMachines, std::size_t shards,
                     std::size_t shard, std::size_t threads,
                     const MpcTopology& topology);

/// Worker side: reads the kOpSetup frame off `ch`. Every field is vetted
/// against the caps above before anything is sized by it; a malformed
/// frame (or a frame that is not kOpSetup) throws ShardError.
WorkerConfig readWorkerSetup(Channel& ch);

}  // namespace mpcspan::runtime::shard
