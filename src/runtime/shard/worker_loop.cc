#include "runtime/shard/worker_loop.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "runtime/arena.hpp"
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
                       std::vector<WireFd>& peers,
                       std::vector<std::string> kernels, BlockStore& store) {
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

  // Worker-owned state, alive across rounds. The kernel table and block
  // store arrived in the SETUP frame; everything later comes over the wire.
  ThreadPool pool(cfg.threads);
  std::vector<std::unique_ptr<StepKernel>> instances(kernels.size());

  // Double-buffered delivery arenas: the merged cross-shard payloads of
  // round N live (Payload::borrowed) in deliveryArena[curArena] while the
  // resident inboxes reference them; round N + 1 merges into the *other*
  // arena after resetting it, so round N - 1's runs are freed wholesale
  // with no per-payload bookkeeping. Own-shard messages (kernel-produced)
  // stay heap/inline — only inbound rows are arena-backed. An aborted
  // round never flips, so its half-filled arena is simply reset again.
  Arena deliveryArena[2];
  std::size_t curArena = 0;

  // Double-buffered resident inboxes, flipped in lockstep with the arenas:
  // every reader (kernel phases, fetches) sees inboxBuf[curInbox], while a
  // round's deliveries are installed into the *back* buffer before the
  // verdict exists and only a commit flips them live. A speculative install
  // touches nothing a reader (or an abort) can see, so discarding it after
  // an abort is just "don't flip".
  std::vector<std::vector<Delivery>> inboxBuf[2];
  inboxBuf[0].resize(local);
  inboxBuf[1].resize(local);
  std::size_t curInbox = 0;

  // This worker's STEP epoch, advanced once per kOpStep attempt (aborts
  // included) in lockstep with the coordinator's counter; every frame of
  // the barrier conversation is vetted against it.
  std::uint64_t stepEpoch = 0;

  auto ensureInstance = [&](std::uint64_t id) -> StepKernel& {
    if (id >= kernels.size())
      throw std::runtime_error("ShardedEngine: unknown kernel id in worker");
    if (!instances[id]) instances[id] = makeGlobalKernel(kernels[id]);
    return *instances[id];
  };

  // Stages the deliveries of a projected round view into the *back* inbox
  // buffer, in (src, pos) order; the caller flips curInbox (and curArena)
  // to commit, or leaves them put to discard.
  auto installDeliveries =
      [&](const std::vector<std::vector<Ref>>& byDst,
          std::vector<std::vector<Message>>& projected) {
        std::vector<std::vector<Delivery>>& next = inboxBuf[1 - curInbox];
        next.assign(local, std::vector<Delivery>());
        pool.parallelFor(local, [&](std::size_t i) {
          const auto& refs = byDst[i];
          next[i].reserve(refs.size());
          for (const Ref& ref : refs)
            next[i].push_back(
                {ref.src, std::move(projected[ref.src][ref.pos].payload)});
        });
      };

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
            if (id != kernels.size())
              throw std::runtime_error(
                  "ShardedEngine: kernel id out of order in worker");
            // Append-only, even on failure: another worker may have
            // resolved this id, so removing the slot would desync the id
            // tables. A failed slot is inert — the coordinator tombstones
            // the name, so no step can ever reference it.
            kernels.push_back(name);
            instances.emplace_back();
            ensureInstance(id);  // construct eagerly: fail at registration
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

          // Phase A: run the kernel over this shard's machines, keep the
          // messages, and bucket every cross-shard one straight into its
          // destination shard's section in one pass over the outboxes
          // (rows land in (src asc, send-position asc) order because the
          // scan walks machines ascending). This is the local validation
          // gate: a kernel throw, a rogue destination, or a source-side
          // capacity violation is reported before the verdict, and the
          // report also carries this worker's contribution to every
          // machine's inbound words so the coordinator can run the
          // receiver-side validation.
          std::uint8_t kind = kOk;
          std::string err;
          std::uint64_t words = 0;
          std::vector<std::vector<Message>> own(local);
          std::vector<WireWriter> sections(cfg.shards);
          std::vector<std::uint64_t> counts(cfg.shards, 0);
          std::vector<std::uint64_t> recvWords(n, 0);
          try {
            StepKernel& ker = ensureInstance(kid);
            pool.parallelFor(local, [&](std::size_t i) {
              own[i] = ker.step(
                  KernelCtx{lo + i, n, inboxBuf[curInbox][i], args, store});
            });
            for (std::size_t i = 0; i < local; ++i)
              for (const Message& msg : own[i]) {
                if (msg.dst >= n)
                  throw std::invalid_argument(
                      "RoundEngine: message to unknown machine");
                recvWords[msg.dst] += msg.payload.size();
                if (msg.dst >= lo && msg.dst < hi) continue;
                const std::size_t t = shardOfMachine(n, cfg.shards, msg.dst);
                sections[t].row(lo + i, msg.dst, msg.payload.data(),
                                msg.payload.size());
                ++counts[t];
              }
            words = cfg.topology.validateSources(own, lo);
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
              r.u64(words);
              for (const std::uint64_t w : recvWords) r.u64(w);
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
            std::vector<std::vector<Message>> projected(n);
            for (std::size_t i = 0; i < local; ++i)
              projected[lo + i] = std::move(own[i]);
            Arena& mergeArena = deliveryArena[1 - curArena];
            mergeArena.reset();
            try {
              for (std::size_t t = 0; t < cfg.shards; ++t) {
                if (t == s) continue;
                const std::uint64_t count = frames[t].u64();
                mergeSectionRows(frames[t], count,
                                 shardRangeBegin(n, cfg.shards, t),
                                 shardRangeEnd(n, cfg.shards, t), lo, hi,
                                 projected, &mergeArena);
              }
            } catch (const ShardError&) {
              throw;
            } catch (const std::exception& e) {
              // Validation is settled source-side; a garbled peer frame can
              // only be transport corruption — fail the backend.
              throw ShardError(std::string("section merge: ") + e.what());
            }
            installDeliveries(indexByDst(projected, lo, hi), projected);
          }

          spinAwaitReadable(ctrl.fd(), &budget);
          WireReader v = WireReader::recvFramed(ctrl);
          // Read the verdict byte unconditionally — error rounds must still
          // consume it, or the epoch parse shifts by one byte.
          const std::uint8_t verdict = v.u8();
          const bool commit = kind == kOk && verdict == kGo;
          if (v.u64() != epoch)
            throw ShardError(
                "step barrier: verdict epoch mismatch (desynced stream)");
          if (commit) {
            // The arena flip keeps this round's borrowed payloads alive
            // until the round after next resets their buffer.
            curArena = 1 - curArena;
            curInbox = 1 - curInbox;
          } else {
            // Abort discards all speculative state: the back buffers are
            // cleared, the front buffers were never touched.
            inboxBuf[1 - curInbox].assign(local, std::vector<Delivery>());
          }
          break;
        }

        case kOpLocal: {
          const std::uint64_t kid = cmd.u64();
          const std::vector<Word> args = readArgs(cmd);
          std::uint8_t kind = kOk;
          std::string err;
          try {
            StepKernel& ker = ensureInstance(kid);
            pool.parallelFor(local, [&](std::size_t i) {
              ker.local(
                  KernelCtx{lo + i, n, inboxBuf[curInbox][i], args, store});
            });
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
          std::vector<std::vector<Word>> out(local);
          try {
            StepKernel& ker = ensureInstance(kid);
            pool.parallelFor(local, [&](std::size_t i) {
              out[i] = ker.fetch(
                  KernelCtx{lo + i, n, inboxBuf[curInbox][i], args, store});
            });
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
          const std::uint64_t handle = cmd.u64();
          std::uint8_t kind = kOk;
          std::string err;
          try {
            store.create(handle);
            for (std::size_t m = lo; m < hi; ++m) {
              const std::uint64_t len = cmd.u64();
              if (len > cmd.remaining() / sizeof(Word))
                throw ShardError("shard wire frame: corrupt block length");
              WordBuf& block = store.block(handle, m);
              block.resize(len);
              cmd.words(block.data(), len);
            }
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
              const WordBuf& block = store.block(handle, m);
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
          store.erase(handle);
          writeReport(ctrl, kOk, std::string());
          break;
        }

        case kOpFetchInboxes: {
          WireWriter w;
          for (const std::vector<Delivery>& inbox : inboxBuf[curInbox]) {
            w.u64(inbox.size());
            for (const Delivery& d : inbox) {
              w.u64(d.src);
              w.u64(d.payload.size());
              w.words(d.payload.data(), d.payload.size());
            }
          }
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

// ---------------------------------------------------------------------------
// Provisioning (kOpSetup).
// ---------------------------------------------------------------------------

void sendWorkerSetup(Channel& ch, std::size_t numMachines, std::size_t shards,
                     std::size_t shard, std::size_t threads,
                     const MpcTopology& topology,
                     const std::vector<std::string>* kernels,
                     const BlockStore* blocks) {
  const std::size_t lo = shardRangeBegin(numMachines, shards, shard);
  const std::size_t hi = shardRangeEnd(numMachines, shards, shard);
  WireWriter w;
  w.u8(kOpSetup);
  w.u64(numMachines);
  w.u64(shards);
  w.u64(shard);
  w.u64(threads);
  w.u64(topology.wordsPerMachine());
  w.u64(kernels ? kernels->size() : 0);
  if (kernels)
    for (const std::string& name : *kernels) w.str(name);
  const std::vector<std::uint64_t> handles =
      blocks ? blocks->handles() : std::vector<std::uint64_t>{};
  w.u64(handles.size());
  for (const std::uint64_t h : handles) {
    w.u64(h);
    for (std::size_t m = lo; m < hi; ++m) {
      const WordBuf& block = blocks->block(h, m);
      w.u64(block.size());
      w.words(block.data(), block.size());
    }
  }
  w.sendFramed(ch);
}

WorkerSetup readWorkerSetup(Channel& ch) {
  WireReader r = WireReader::recvFramed(ch);
  if (r.u8() != kOpSetup)
    throw ShardError("tcp setup: expected a SETUP frame (protocol desync)");
  WorkerSetup setup;
  WorkerConfig& cfg = setup.cfg;
  cfg.numMachines = r.u64();
  cfg.shards = r.u64();
  cfg.shard = r.u64();
  cfg.threads = r.u64();
  if (cfg.numMachines == 0 || cfg.numMachines > kMaxSetupMachines ||
      cfg.shards < 2 || cfg.shards > cfg.numMachines ||
      cfg.shard >= cfg.shards || cfg.threads == 0 ||
      cfg.threads > kMaxSetupThreads)
    throw ShardError("tcp setup: implausible engine dimensions");
  cfg.topology = MpcTopology(r.u64());
  const std::uint64_t kernelCount = r.u64();
  // A serialized kernel entry is at least its 8-byte name-length prefix.
  if (kernelCount > r.remaining() / sizeof(std::uint64_t))
    throw ShardError("tcp setup: corrupt kernel count");
  setup.kernels.reserve(kernelCount);
  for (std::uint64_t k = 0; k < kernelCount; ++k)
    setup.kernels.push_back(r.str());
  const std::size_t n = cfg.numMachines;
  const std::size_t lo = shardRangeBegin(n, cfg.shards, cfg.shard);
  const std::size_t hi = shardRangeEnd(n, cfg.shards, cfg.shard);
  setup.store = std::make_unique<BlockStore>(n);
  const std::uint64_t handleCount = r.u64();
  // A handle is at least its id plus one length per machine of the slice,
  // so a garbled count or machine range fails here, before any store
  // entry is sized by numMachines.
  if (handleCount > r.remaining() / (sizeof(std::uint64_t) * (1 + hi - lo)))
    throw ShardError("tcp setup: corrupt block handle count");
  for (std::uint64_t i = 0; i < handleCount; ++i) {
    const std::uint64_t h = r.u64();
    if (setup.store->has(h))
      throw ShardError("tcp setup: duplicate block handle");
    setup.store->create(h);
    for (std::size_t m = lo; m < hi; ++m) {
      const std::uint64_t len = r.u64();
      if (len > r.remaining() / sizeof(Word))
        throw ShardError("tcp setup: corrupt block length");
      WordBuf& block = setup.store->block(h, m);
      block.resize(len);
      r.words(block.data(), len);
    }
  }
  if (!r.atEnd()) throw ShardError("tcp setup: trailing bytes");
  return setup;
}

}  // namespace mpcspan::runtime::shard
