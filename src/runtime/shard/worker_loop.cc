#include "runtime/shard/worker_loop.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "runtime/machine_slice.hpp"
#include "runtime/shard/peer_mesh.hpp"
#include "runtime/shard/protocol.hpp"
#include "runtime/thread_pool.hpp"

namespace mpcspan::runtime::shard {

std::size_t shardRangeBegin(std::size_t numMachines, std::size_t shards,
                            std::size_t s) {
  // Same balanced contiguous split as ThreadPool's lane slices.
  const std::size_t base = numMachines / shards;
  const std::size_t extra = numMachines % shards;
  return s * base + std::min(s, extra);
}

std::size_t shardOfMachine(std::size_t numMachines, std::size_t shards,
                           std::size_t machine) {
  // Inverse of shardRangeBegin: the first `extra` shards own base + 1
  // machines.
  const std::size_t base = numMachines / shards;
  const std::size_t extra = numMachines % shards;
  const std::size_t split = extra * (base + 1);
  return machine < split ? machine / (base + 1)
                         : extra + (machine - split) / base;
}

void runResidentWorker(const WorkerConfig& cfg, Channel& ctrl,
                       std::vector<WireFd>& peers) {
  const std::size_t n = cfg.numMachines;
  const std::size_t s = cfg.shard;
  const std::size_t lo = shardRangeBegin(n, cfg.shards, s);
  const std::size_t hi = shardRangeEnd(n, cfg.shards, s);
  const std::size_t local = hi - lo;
  // The intra-round deadline. The idle top-of-loop command read is
  // unbounded (an idle engine may legitimately not speak for minutes) but
  // every read *inside* a round keeps the channel's deadline, so a
  // coordinator or peer that hangs mid-round surfaces as ShardError.
  const int roundDeadline = ctrl.deadline();

  // Worker-owned state, alive across rounds: kernels and blocks arrive over
  // the control wire.
  ThreadPool pool(cfg.threads);
  MachineSlice slice(n, lo, hi, cfg.topology, pool);

  // This worker's STEP epoch, advanced once per kOpStep attempt (aborts
  // included) in lockstep with the coordinator's counter; every frame of
  // the barrier conversation is vetted against it.
  std::uint64_t stepEpoch = 0;

  try {
    for (;;) {
      ctrl.setDeadline(-1);  // idle wait: unbounded by design
      WireReader cmd = WireReader::recvFramed(ctrl);  // EOF -> ShardError
      ctrl.setDeadline(roundDeadline);
      const std::uint8_t op = cmd.u8();
      switch (op) {
        case kOpShutdown:
          return;

        case kOpRegisterKernel: {
          const std::uint64_t id = cmd.u64();
          const std::string name = cmd.str();
          std::uint8_t kind = kOk;
          std::string err;
          try {
            if (id != slice.numKernels())
              throw std::runtime_error(
                  "ShardedEngine: kernel id out of order in worker");
            // The id stays taken on failure too: another worker may hold
            // it, and the coordinator tombstones the name.
            slice.addKernel(name);
          } catch (...) {
            kind = classify(err);
          }
          writeReport(ctrl, kind, err);
          break;
        }

        case kOpStep: {
          const std::uint64_t epoch = cmd.u64();
          if (epoch != stepEpoch)
            throw std::runtime_error(
                "ShardedEngine: step epoch mismatch in worker (desynced "
                "stream)");
          ++stepEpoch;
          const std::uint64_t kid = cmd.u64();
          const std::vector<Word> args = readArgs(cmd);

          // Phase A, the local gate: step the slice (a kernel throw, a rogue
          // destination or an over-budget sender is reported before the
          // verdict, along with this worker's inbound word sums), then
          // bucket every cross-shard row into its destination shard's
          // section, in (src asc, send-position asc) order.
          std::uint8_t kind = kOk;
          std::string err;
          SliceRound round;
          std::vector<WireWriter> sections(cfg.shards);
          std::vector<std::uint64_t> counts(cfg.shards, 0);
          try {
            round = slice.step(kid, args);
            for (std::size_t i = 0; i < local; ++i)
              for (const RowView row : round.outboxes[i]) {
                if (row.peer >= lo && row.peer < hi) continue;
                const std::size_t t = shardOfMachine(n, cfg.shards, row.peer);
                sections[t].row(lo + i, row.peer, row.words.data(),
                                row.words.size());
                ++counts[t];
              }
          } catch (...) {
            kind = classify(err);
            sections.assign(cfg.shards, WireWriter());
            counts.assign(cfg.shards, 0);
          }

          {
            WireWriter r;
            r.u8(kind);
            r.u64(epoch);
            if (kind == kOk) {
              r.u64(round.words);
              for (const std::uint64_t w : round.inbound) r.u64(w);
            } else {
              r.str(err);
            }
            r.sendFramed(ctrl);
          }

          // Exchange and stage before the verdict. The exchange is NOT
          // conditional on kind: a worker whose phase A failed still ships
          // its (cleared, empty) sections so its peers' exchanges complete
          // — they are blocked in it before they ever read their abort
          // verdict. One communication budget covers every wait left in
          // the round, created *after* the compute so a slow kernel cannot
          // spend it; a trickling peer drains it instead of resetting it.
          DeadlineBudget budget(cfg.meshTimeoutMs);
          std::vector<WireReader> frames =
              meshExchange(peers, s, counts, sections, &budget);
          if (kind == kOk) {
            std::vector<WordRows> projected(n);
            for (std::size_t i = 0; i < local; ++i)
              projected[lo + i] = std::move(round.outboxes[i]);
            try {
              for (std::size_t t = 0; t < cfg.shards; ++t) {
                if (t == s) continue;
                const std::uint64_t count = frames[t].u64();
                mergeSectionRows(frames[t], count,
                                 shardRangeBegin(n, cfg.shards, t),
                                 shardRangeEnd(n, cfg.shards, t), lo, hi,
                                 projected);
              }
            } catch (const ShardError&) {
              throw;
            } catch (const std::exception& e) {
              // Validation is settled source-side; a garbled peer frame can
              // only be transport corruption — fail the backend.
              throw ShardError(std::string("section merge: ") + e.what());
            }
            slice.install(std::move(projected));
          }

          spinAwaitReadable(ctrl.fd(), &budget);
          WireReader v = WireReader::recvFramed(ctrl);
          // Read the verdict byte unconditionally — error rounds must still
          // consume it, or the epoch parse shifts by one byte.
          const std::uint8_t verdict = v.u8();
          if (v.u64() != epoch)
            throw ShardError(
                "step barrier: verdict epoch mismatch (desynced stream)");
          if (kind == kOk && verdict == kGo)
            slice.commit();
          else
            slice.abort();
          break;
        }

        case kOpLocal: {
          const std::uint64_t kid = cmd.u64();
          const std::vector<Word> args = readArgs(cmd);
          std::uint8_t kind = kOk;
          std::string err;
          try {
            slice.local(kid, args);
          } catch (...) {
            kind = classify(err);
          }
          writeReport(ctrl, kind, err);
          break;
        }

        case kOpFetchKernel: {
          const std::uint64_t kid = cmd.u64();
          const std::vector<Word> args = readArgs(cmd);
          std::uint8_t kind = kOk;
          std::string err;
          std::vector<std::vector<Word>> out;
          try {
            out = slice.fetch(kid, args);
          } catch (...) {
            kind = classify(err);
          }
          WireWriter w;
          w.u8(kind);
          if (kind != kOk) {
            w.str(err);
          } else {
            for (const std::vector<Word>& block : out) {
              w.u64(block.size());
              w.words(block.data(), block.size());
            }
          }
          w.sendFramed(ctrl);
          break;
        }

        case kOpStoreBlocks: {
          std::uint8_t kind = kOk;
          std::string err;
          try {
            readBlockSlice(cmd, lo, hi, slice.store());
          } catch (const ShardError&) {
            throw;
          } catch (...) {
            kind = classify(err);
          }
          writeReport(ctrl, kind, err);
          break;
        }

        case kOpFetchBlocks: {
          const std::uint64_t handle = cmd.u64();
          std::uint8_t kind = kOk;
          std::string err;
          WireWriter w;
          try {
            WireWriter rows;
            for (std::size_t m = lo; m < hi; ++m) {
              const std::vector<Word>& block = slice.store().block(handle, m);
              rows.u64(block.size());
              rows.words(block.data(), block.size());
            }
            w.u8(kOk);
            w.append(rows);
          } catch (...) {
            kind = classify(err);
            w = WireWriter();
            w.u8(kind);
            w.str(err);
          }
          w.sendFramed(ctrl);
          break;
        }

        case kOpFreeBlocks: {
          const std::uint64_t handle = cmd.u64();
          slice.store().erase(handle);
          writeReport(ctrl, kOk, std::string());
          break;
        }

        case kOpFetchInboxes: {
          WireWriter w;
          writeInboxes(w, slice.snapshot());
          w.sendFramed(ctrl);
          break;
        }

        default:
          throw std::runtime_error(
              "ShardedEngine: unknown opcode in worker (protocol bug)");
      }
    }
  } catch (const ShardError&) {
    // Coordinator closed the wire (engine destroyed or died) — clean exit.
    return;
  }
}

void writeBlockSlice(WireWriter& w, std::uint64_t handle,
                     const std::vector<std::vector<Word>>& perMachine,
                     std::size_t lo, std::size_t hi) {
  w.u64(handle);
  for (std::size_t m = lo; m < hi; ++m) {
    w.u64(perMachine[m].size());
    w.words(perMachine[m].data(), perMachine[m].size());
  }
}

std::uint64_t readBlockSlice(WireReader& r, std::size_t lo, std::size_t hi,
                             BlockStore& store) {
  const std::uint64_t handle = r.u64();
  store.create(handle);
  for (std::size_t m = lo; m < hi; ++m) {
    const std::uint64_t len = r.u64();
    if (len > r.remaining() / sizeof(Word))
      throw ShardError("shard wire frame: corrupt block length");
    std::vector<Word>& block = store.block(handle, m);
    block.resize(len);
    r.words(block.data(), len);
  }
  if (!r.atEnd()) throw ShardError("shard wire frame: trailing bytes");
  return handle;
}

// ---------------------------------------------------------------------------
// Provisioning (kOpSetup).
// ---------------------------------------------------------------------------

void sendWorkerSetup(Channel& ch, std::size_t numMachines, std::size_t shards,
                     std::size_t shard, std::size_t threads,
                     const MpcTopology& topology) {
  WireWriter w;
  w.u8(kOpSetup);
  w.u64(numMachines);
  w.u64(shards);
  w.u64(shard);
  w.u64(threads);
  w.u64(topology.wordsPerMachine());
  w.sendFramed(ch);
}

WorkerConfig readWorkerSetup(Channel& ch) {
  WireReader r = WireReader::recvFramed(ch);
  if (r.u8() != kOpSetup)
    throw ShardError("tcp setup: expected a SETUP frame (protocol desync)");
  WorkerConfig cfg;
  cfg.numMachines = r.u64();
  cfg.shards = r.u64();
  cfg.shard = r.u64();
  cfg.threads = r.u64();
  if (cfg.numMachines == 0 || cfg.numMachines > kMaxSetupMachines ||
      cfg.shards < 2 || cfg.shards > cfg.numMachines ||
      cfg.shard >= cfg.shards || cfg.threads == 0 ||
      cfg.threads > kMaxThreads)
    throw ShardError("tcp setup: implausible engine dimensions");
  cfg.topology = MpcTopology(r.u64());
  if (!r.atEnd()) throw ShardError("tcp setup: trailing bytes");
  return cfg;
}

}  // namespace mpcspan::runtime::shard
