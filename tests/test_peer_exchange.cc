// Cross-shard exchange over the tcp mesh the resident workers form at
// rendezvous: kernel rounds must be bit-identical to the in-process engine
// (rounds, ledger, kernel state, resident inbox contents) at 2 and 4
// shards x 1 and 2 threads, and every failure mode —
// a kernel throw mid-round, a capacity abort, a peer dying mid-exchange,
// 1.6 MB frames streaming through the socket buffers — must surface the
// in-process error or a loud ShardError. Also here: the section/wire
// decoders the mesh feeds, under seeded mutation. The barrier's own
// contracts (round budget, MpcTopology split validation) live in
// test_pipeline.
#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "runtime/arena.hpp"
#include "runtime/round_engine.hpp"
#include "runtime/shard/peer_mesh.hpp"
#include "runtime/shard/sharded_engine.hpp"
#include "runtime/shard/wire.hpp"
#include "runtime/shard/worker_loop.hpp"
#include "runtime/topology.hpp"
#include "util/rng.hpp"
#include "alloc_cap.hpp"
#include "probe_kernels.hpp"

namespace mpcspan {
namespace {

using runtime::Delivery;
using runtime::EngineConfig;
using runtime::KernelCtx;
using runtime::KernelId;
using runtime::Message;
using runtime::MpcTopology;
using runtime::RoundEngine;
using runtime::StepKernel;
using runtime::shard::mergeSectionRows;
using runtime::shard::ShardError;
using runtime::shard::WireFd;
using runtime::shard::WireReader;
using runtime::shard::WireWriter;
using test_kernels::ProbeKernel;
using test_kernels::probeTopology;

/// Everything observable after a kernel-round workload.
struct Result {
  std::vector<std::vector<Word>> fetched;
  std::vector<Word> flatInboxes;
  std::size_t rounds = 0, words = 0, maxRound = 0;

  friend bool operator==(const Result&, const Result&) = default;
};

Result observe(RoundEngine& eng, KernelId k) {
  Result res;
  res.fetched = eng.fetchKernel(k);
  for (const auto& inbox : eng.snapshotInboxes())
    for (const Delivery& d : inbox) {
      res.flatInboxes.push_back(d.src);
      res.flatInboxes.insert(res.flatInboxes.end(), d.payload.begin(),
                             d.payload.end());
    }
  res.rounds = eng.rounds();
  res.words = eng.totalWordsSent();
  res.maxRound = eng.maxRoundWords();
  return res;
}

Result runWorkload(std::size_t threads, std::size_t shards) {
  RoundEngine eng(EngineConfig{12, threads, shards}, probeTopology());
  const KernelId k = runtime::ensureKernel<ProbeKernel>(eng);
  for (int i = 0; i < 5; ++i) eng.step(k);
  return observe(eng, k);
}

/// Every worker pid must be reaped once the engine is gone.
void expectReaped(const std::vector<pid_t>& pids) {
  for (const pid_t pid : pids) {
    int st = 0;
    EXPECT_EQ(::waitpid(pid, &st, WNOHANG), -1) << "worker leaked: " << pid;
    EXPECT_EQ(errno, ECHILD);
  }
}

TEST(TcpMesh, BitIdenticalToInProcessOnAllTopologies) {
  const Result base = runWorkload(1, 1);
  EXPECT_EQ(base.rounds, 5u);
  for (const std::size_t shards : {2u, 4u})
    for (const std::size_t threads : {1u, 2u})
      EXPECT_EQ(base, runWorkload(threads, shards))
          << shards << " shards x " << threads << " threads";
}

/// Emissions are a pure function of the inbox, so a correctly discarded
/// abort leaves no trace; args[0] makes machine 5 throw.
class ThrowerKernel final : public StepKernel {
 public:
  static std::string kernelName() { return "test.thrower"; }

  std::vector<Message> step(const KernelCtx& ctx) override {
    if (!ctx.args.empty() && ctx.machine == 5)
      throw std::runtime_error("boom mid-round");
    const std::size_t n = ctx.numMachines;
    const std::size_t m = ctx.machine;
    Word sum = m + 3;
    for (const Delivery& d : ctx.inbox) sum += 5 * d.src + d.payload.front();
    return {{(m + sum) % n, {sum}}, {(m * 7 + 2) % n, {sum ^ m}}};
  }

  std::vector<Word> fetch(const KernelCtx& ctx) override {
    Word sum = 0;
    for (const Delivery& d : ctx.inbox) sum += d.src + d.payload.front();
    return {sum};
  }
};

TEST(TcpMesh, KernelThrowMidRoundAbortsCleanly) {
  // The abort lands while the workers have already exchanged and staged the
  // round into their back buffers. Discarding it must leave the resident
  // inboxes, ledger, and worker processes exactly as before the round — and
  // the rounds after the abort must match an engine that never tried it.
  RoundEngine ref(EngineConfig{12, 1, 1}, MpcTopology(64));
  RoundEngine eng(EngineConfig{12, 1, 4}, MpcTopology(64));
  const KernelId kr = runtime::ensureKernel<ThrowerKernel>(ref);
  const KernelId ke = runtime::ensureKernel<ThrowerKernel>(eng);
  for (int i = 0; i < 2; ++i) {
    ref.step(kr);
    eng.step(ke);
  }
  const std::vector<pid_t> pids = eng.shardBackend()->workerPids();
  ASSERT_EQ(pids.size(), 4u);
  const std::size_t wordsBefore = eng.totalWordsSent();
  EXPECT_THROW(eng.step(ke, {1}), std::runtime_error);
  EXPECT_EQ(eng.rounds(), 2u);
  EXPECT_EQ(eng.totalWordsSent(), wordsBefore);
  // Same worker processes — the abort forked nothing and killed nothing.
  EXPECT_EQ(eng.shardBackend()->workerPids(), pids);
  for (int i = 0; i < 2; ++i) {
    ref.step(kr);
    eng.step(ke);
  }
  EXPECT_EQ(observe(eng, ke), observe(ref, kr));
}

/// With any arg every machine floods machine 0 past its receive budget.
class Flooder final : public StepKernel {
 public:
  static std::string kernelName() { return "test.flooder"; }

  std::vector<Message> step(const KernelCtx& ctx) override {
    if (!ctx.args.empty())
      return {{0, {1, 2, 3, 4, 5}}};  // 8 machines x 5 words > cap 16
    return {{(ctx.machine + 5) % ctx.numMachines, {ctx.machine + 7}}};
  }
};

TEST(TcpMesh, CapacityAbortKeepsStateAndWorkers) {
  // A receive-budget violation is only visible at the coordinator, over
  // the summed inbound words — after every section already moved. The
  // round must still abort with the in-process error type, consume
  // nothing, and leave the workers usable.
  RoundEngine eng(EngineConfig{8, 1, 4}, MpcTopology(16));
  const KernelId k = runtime::ensureKernel<Flooder>(eng);
  eng.step(k);
  const std::size_t wordsBefore = eng.totalWordsSent();
  const auto inboxesBefore = eng.snapshotInboxes();
  EXPECT_THROW(eng.step(k, {1}), CapacityError);
  EXPECT_EQ(eng.rounds(), 1u);
  EXPECT_EQ(eng.totalWordsSent(), wordsBefore);
  const auto inboxesAfter = eng.snapshotInboxes();
  ASSERT_EQ(inboxesBefore.size(), inboxesAfter.size());
  for (std::size_t m = 0; m < inboxesBefore.size(); ++m) {
    ASSERT_EQ(inboxesBefore[m].size(), inboxesAfter[m].size());
    for (std::size_t i = 0; i < inboxesBefore[m].size(); ++i)
      EXPECT_EQ(inboxesBefore[m][i].payload, inboxesAfter[m][i].payload);
  }
  eng.step(k);  // the workers survived the abort
  EXPECT_EQ(eng.rounds(), 2u);
}

/// The injected fault: machines 2 and 3 — shard 1 of 8 machines at 4
/// shards — exit their worker process abnormally mid-step, while every
/// other shard computes, reports and enters its exchange. Never step it
/// in-process.
class PeerDeathKernel final : public StepKernel {
 public:
  static std::string kernelName() { return "test.peerdeath"; }

  std::vector<Message> step(const KernelCtx& ctx) override {
    if (ctx.machine == 2 || ctx.machine == 3) std::_Exit(4);
    return {{(ctx.machine + 4) % ctx.numMachines, {ctx.machine}}};
  }
};

TEST(TcpMesh, PeerDeathMidExchangeSurfacesShardErrorForAll) {
  // Shard 1 dies in its first step, as every peer enters its exchange.
  // Every other worker must observe the dead peer, the engine must fail
  // loudly (not hang), stay failed, and reap every worker.
  std::vector<pid_t> pids;
  {
    RoundEngine eng(EngineConfig{8, 1, 4}, MpcTopology(32));
    const KernelId k = runtime::ensureKernel<PeerDeathKernel>(eng);
    // Start the workers without a STEP, which would reach the fault.
    eng.fetchKernel(k);
    pids = eng.shardBackend()->workerPids();
    ASSERT_EQ(pids.size(), 4u);
    EXPECT_THROW(eng.step(k), ShardError);
    EXPECT_THROW(eng.step(k), ShardError);  // the backend stays failed
  }
  expectReaped(pids);
}

/// Emits one ~1.6 MB payload per machine per round — thousands of loopback
/// segments, far beyond any socket buffer, so every frame must stream with
/// backpressure.
class BigFrameKernel final : public StepKernel {
 public:
  static std::string kernelName() { return "test.bigframe"; }
  static constexpr std::size_t kWords = 200000;  // 1.6 MB of payload

  std::vector<Message> step(const KernelCtx& ctx) override {
    ensureSized(ctx);
    const std::size_t n = ctx.numMachines;
    const std::size_t m = ctx.machine;
    Word seed = m + 1;
    for (const Delivery& d : ctx.inbox) seed += d.payload[0] + d.payload[kWords / 2];
    seen_[m] += seed;
    std::vector<Word> pay(kWords);
    for (std::size_t w = 0; w < kWords; ++w)
      pay[w] = seed * 2654435761u + w;
    return {{(m + 1) % n, std::move(pay)}};
  }

  std::vector<Word> fetch(const KernelCtx& ctx) override {
    ensureSized(ctx);
    return {seen_[ctx.machine]};
  }

 private:
  void ensureSized(const KernelCtx& ctx) {
    std::call_once(sized_, [&] { seen_.resize(ctx.numMachines); });
  }

  std::once_flag sized_;
  std::vector<Word> seen_;
};

TEST(TcpMesh, BigFramesStreamThroughTheMesh) {
  auto run = [&](std::size_t shards) {
    RoundEngine eng(EngineConfig{4, 1, shards},
                    MpcTopology(BigFrameKernel::kWords));
    const KernelId k = runtime::ensureKernel<BigFrameKernel>(eng);
    eng.step(k);
    eng.step(k);
    return observe(eng, k);
  };
  const Result base = run(1);
  for (const std::size_t shards : {2u, 4u})
    EXPECT_EQ(base, run(shards)) << shards << " shards, 1.6 MB frames";
}

TEST(TcpMesh, ExchangeRoundsAndBlocksRideTheBackend) {
  // A round whose outboxes are fixed up front and the worker-resident
  // blocks must match the in-process engine too.
  RoundEngine sharded(EngineConfig{6, 1, 3}, MpcTopology(64));
  RoundEngine ref(EngineConfig{6, 1, 1}, MpcTopology(64));
  std::vector<std::vector<std::vector<Delivery>>> inboxes;
  for (RoundEngine* eng : {&sharded, &ref}) {
    std::vector<std::vector<Word>> per(6);
    for (std::size_t m = 0; m < 6; ++m) per[m] = {m * 10 + 1, m * 10 + 2};
    const std::uint64_t h = eng->createBlocks(per);
    test_kernels::Outboxes out(6);
    for (std::size_t m = 0; m < 6; ++m)
      out[m].push_back({(m + 1) % 6, {m, m ^ 7}});
    inboxes.push_back(test_kernels::scriptedRound(*eng, std::move(out)));
    EXPECT_EQ(eng->readBlocks(h), per);
    eng->freeBlocks(h);
  }
  ASSERT_EQ(inboxes[0].size(), inboxes[1].size());
  for (std::size_t m = 0; m < inboxes[0].size(); ++m) {
    ASSERT_EQ(inboxes[0][m].size(), inboxes[1][m].size());
    for (std::size_t i = 0; i < inboxes[0][m].size(); ++i) {
      EXPECT_EQ(inboxes[0][m][i].src, inboxes[1][m][i].src);
      EXPECT_EQ(inboxes[0][m][i].payload, inboxes[1][m][i].payload);
    }
  }
  EXPECT_EQ(sharded.rounds(), ref.rounds());
  EXPECT_EQ(sharded.totalWordsSent(), ref.totalWordsSent());
}

// --- The section decoder the mesh feeds: corrupt frames are rejected
// before any row lands, without integer overflow. ---

WireReader toReader(const WireWriter& w) {
  return WireReader::fromBytes(
      std::vector<std::uint8_t>(w.data(), w.data() + w.size()));
}

TEST(PeerSectionParse, ImplausibleRowCountRejectedWithoutOverflow) {
  std::vector<std::vector<Message>> projected(8);
  WireReader empty = WireReader::fromBytes({});
  EXPECT_THROW(mergeSectionRows(empty, ~std::uint64_t{0}, 0, 4, 4, 8, projected),
               ShardError);
  // A count whose byte requirement would wrap a 64-bit multiply.
  WireWriter w;
  w.u64(1);
  WireReader r = toReader(w);
  EXPECT_THROW(
      mergeSectionRows(r, (~std::uint64_t{0}) / 8, 0, 4, 4, 8, projected),
      ShardError);
  for (const auto& rows : projected) EXPECT_TRUE(rows.empty());
}

TEST(PeerSectionParse, ImplausiblePayloadLengthRejectedWithoutOverflow) {
  std::vector<std::vector<Message>> projected(8);
  WireWriter w;
  w.u64(0);                       // src
  w.u64(4);                       // dst
  w.u64(std::uint64_t{1} << 61);  // len: * sizeof(Word) would wrap
  WireReader r = toReader(w);
  EXPECT_THROW(mergeSectionRows(r, 1, 0, 4, 4, 8, projected), ShardError);
  for (const auto& rows : projected) EXPECT_TRUE(rows.empty());
}

TEST(PeerSectionParse, RowOutOfRangeRejectedBeforeAnyRowLands) {
  std::vector<std::vector<Message>> projected(8);
  const Word payload = 42;
  // First row valid, second row's src escapes the sender's shard range: the
  // vet pass must reject the whole section before row one is consumed.
  WireWriter w;
  w.row(1, 5, &payload, 1);
  w.row(6, 5, &payload, 1);
  WireReader r = toReader(w);
  EXPECT_THROW(mergeSectionRows(r, 2, 0, 4, 4, 8, projected), ShardError);
  for (const auto& rows : projected) EXPECT_TRUE(rows.empty());

  WireWriter w2;
  w2.row(1, 2, &payload, 1);  // dst outside the receiver's range
  WireReader r2 = toReader(w2);
  EXPECT_THROW(mergeSectionRows(r2, 1, 0, 4, 4, 8, projected), ShardError);
}

TEST(PeerSectionParse, TruncatedRowRejected) {
  std::vector<std::vector<Message>> projected(8);
  const Word payload = 7;
  WireWriter w;
  w.row(0, 4, &payload, 1);
  w.u64(1);  // a second row's src, then nothing
  WireReader r = toReader(w);
  EXPECT_THROW(mergeSectionRows(r, 2, 0, 4, 4, 8, projected), ShardError);
  for (const auto& rows : projected) EXPECT_TRUE(rows.empty());
}

TEST(PeerSectionParse, ValidSectionMergesInRowOrder) {
  std::vector<std::vector<Message>> projected(8);
  const Word a[3] = {10, 11, 12};
  const Word b = 20;
  WireWriter w;
  w.row(1, 6, a, 3);
  w.row(1, 4, &b, 1);
  w.row(3, 5, &b, 1);
  WireReader r = toReader(w);
  mergeSectionRows(r, 3, 0, 4, 4, 8, projected);
  ASSERT_EQ(projected[1].size(), 2u);
  EXPECT_EQ(projected[1][0].dst, 6u);
  EXPECT_EQ(projected[1][0].payload, (std::vector<Word>{10, 11, 12}));
  EXPECT_EQ(projected[1][1].dst, 4u);
  ASSERT_EQ(projected[3].size(), 1u);
  EXPECT_EQ(projected[3][0].dst, 5u);
  EXPECT_TRUE(r.atEnd());
}

// --- The section decoder under seeded mutation: every bit-flipped,
// truncated or spliced frame body is rejected with ShardError before any
// row lands, or merges rows that re-encode to exactly its bytes — with no
// allocation sized by a field the bytes do not back. ---

using Bytes = std::vector<std::uint8_t>;

/// Valid frame bodies as a receiving worker reads them (u64 row count, then
/// WireWriter::row rows) from sources [0, 4) into machines [4, 8): empty,
/// one inline word, and src-sorted runs with empty and multi-word payloads.
std::vector<Bytes> sampleSections() {
  struct Row {
    Word src, dst;
    std::vector<Word> payload;
  };
  const std::vector<std::vector<Row>> shapes{
      {},
      {{0, 4, {7}}},
      {{1, 6, {10, 11, 12}}, {1, 4, {20}}, {3, 5, {}}},
      {{0, 7, {1, 2}}, {2, 4, {~Word{0}}}, {2, 4, {4, 5, 6, 7}}, {3, 7, {8}}},
  };
  std::vector<Bytes> out;
  for (const std::vector<Row>& rows : shapes) {
    WireWriter w;
    w.u64(rows.size());
    for (const Row& r : rows)
      w.row(r.src, r.dst, r.payload.data(), r.payload.size());
    out.emplace_back(w.data(), w.data() + w.size());
  }
  return out;
}

/// Decodes `bytes` the way the worker loop does, with a capped allocator
/// (a few times the frame, plus one arena chunk). Returns true if the rows
/// merged; fails the test unless the frame either re-encodes to its own
/// bytes or is rejected with ShardError and projected[] untouched.
bool decodeSection(const Bytes& bytes, runtime::Arena* arena,
                   const std::string& label) {
  std::vector<std::vector<Message>> projected(8);
  WireReader r = WireReader::fromBytes(bytes);
  if (arena != nullptr) arena->reset();
  try {
    const test_alloc::AllocCap cap(4 * bytes.size() + (std::size_t{1} << 17));
    const std::uint64_t count = r.u64();
    mergeSectionRows(r, count, 0, 4, 4, 8, projected, arena);
  } catch (const ShardError&) {
    for (const auto& rows : projected)
      EXPECT_TRUE(rows.empty()) << label << ": rows landed before the throw";
    return false;
  } catch (const std::bad_alloc&) {
    ADD_FAILURE() << label << ": allocation past the frame's size";
    return false;
  } catch (const std::exception& e) {
    ADD_FAILURE() << label << ": not a ShardError: " << e.what();
    return false;
  }
  std::uint64_t rows = 0;
  for (const auto& msgs : projected) rows += msgs.size();
  WireWriter w;
  w.u64(rows);
  for (std::size_t src = 0; src < projected.size(); ++src)
    for (const Message& m : projected[src])
      w.row(src, m.dst, m.payload.data(), m.payload.size());
  EXPECT_EQ(Bytes(w.data(), w.data() + w.size()), bytes)
      << label << ": merged but does not re-encode to its bytes";
  return true;
}

TEST(PeerSectionParse, ValidSectionsReencodeByteIdentically) {
  runtime::Arena arena;
  for (const Bytes& b : sampleSections()) {
    EXPECT_TRUE(decodeSection(b, nullptr, "valid"));
    EXPECT_TRUE(decodeSection(b, &arena, "valid (arena)"));
  }
}

TEST(PeerSectionParse, TruncationsAndSplicesAtEveryCutReencodeOrReject) {
  const std::vector<Bytes> sections = sampleSections();
  runtime::Arena arena;
  std::size_t merged = 0, mutants = 0;
  for (std::size_t a = 0; a < sections.size(); ++a) {
    const Bytes& sa = sections[a];
    for (std::size_t cut = 0; cut < sa.size(); ++cut) {
      // A strict prefix always leaves the count above the rows it holds.
      const Bytes head(sa.begin(), sa.begin() + static_cast<std::ptrdiff_t>(cut));
      EXPECT_FALSE(decodeSection(head, cut % 2 ? &arena : nullptr,
                                 "truncation " + std::to_string(a) + "@" +
                                     std::to_string(cut)));
    }
    for (std::size_t b = 0; b < sections.size(); ++b) {
      const Bytes& sb = sections[b];
      for (std::size_t cut = 0; cut <= std::max(sa.size(), sb.size()); ++cut) {
        Bytes m(sa.begin(), sa.begin() + static_cast<std::ptrdiff_t>(
                                             std::min(cut, sa.size())));
        if (cut < sb.size())
          m.insert(m.end(), sb.begin() + static_cast<std::ptrdiff_t>(cut),
                   sb.end());
        merged += decodeSection(m, ++mutants % 2 ? &arena : nullptr,
                                "splice " + std::to_string(a) + "+" +
                                    std::to_string(b) + "@" +
                                    std::to_string(cut));
      }
    }
  }
  // Splicing a section onto itself reproduces it at every cut.
  EXPECT_GT(merged, 0u);
  EXPECT_LT(merged, mutants);
}

TEST(PeerSectionParse, SeededBitFlipsReencodeOrReject) {
  const std::vector<Bytes> sections = sampleSections();
  runtime::Arena arena;
  Rng rng(20261018);
  std::size_t merged = 0, rejected = 0;
  for (int i = 0; i < 20000; ++i) {
    Bytes m = sections[rng.next(sections.size())];
    const std::uint64_t flips = 1 + rng.next(3);
    for (std::uint64_t f = 0; f < flips; ++f)
      m[rng.next(m.size())] ^= static_cast<std::uint8_t>(1u << rng.next(8));
    if (decodeSection(m, i % 2 ? &arena : nullptr,
                      "mutant " + std::to_string(i)))
      ++merged;
    else
      ++rejected;
  }
  // Both outcomes occur: flipped payload bits merge, broken headers throw.
  EXPECT_GT(merged, 1000u);
  EXPECT_GT(rejected, 1000u);
}

TEST(WireReader, WireSuppliedSizesCannotOverflow) {
  WireWriter w;
  w.u64(~std::uint64_t{0});  // a string/word-count length field of 2^64-1
  {
    WireReader r = toReader(w);
    EXPECT_THROW(r.str(), ShardError);
  }
  {
    WireReader r = toReader(w);
    std::vector<Word> out(1);
    (void)r.u64();
    EXPECT_THROW(r.words(out.data(), ~std::uint64_t{0} / 2), ShardError);
  }
  {
    WireReader r = WireReader::fromBytes({1, 2, 3});  // not even one u64
    EXPECT_THROW(r.u64(), ShardError);
  }
  {
    WireReader r = toReader(w);
    EXPECT_THROW(r.seek(9), ShardError);
    r.seek(8);
    EXPECT_TRUE(r.atEnd());
  }
}

TEST(PeerMesh, LargeFrameFullDuplexExchangeCompletes) {
  // Three "workers" (threads) exchange ~1.6 MB sections — far beyond any
  // socket buffer — all sending and receiving concurrently. The
  // poll-multiplexed exchange must complete without any pairwise ordering
  // (a naive blocking send-then-recv schedule deadlocks here).
  constexpr std::size_t kWorkers = 3;
  constexpr std::size_t kWords = 200000;
  // mesh[a][b] is a's end of the (a, b) socketpair; the diagonal stays
  // invalid.
  std::vector<std::vector<WireFd>> mesh(kWorkers);
  for (auto& row : mesh) row.resize(kWorkers);
  for (std::size_t a = 0; a < kWorkers; ++a)
    for (std::size_t b = a + 1; b < kWorkers; ++b)
      runtime::shard::makeSocketPair(mesh[a][b], mesh[b][a]);
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(kWorkers);
  std::vector<std::vector<std::vector<Message>>> received(
      kWorkers, std::vector<std::vector<Message>>(kWorkers));
  for (std::size_t i = 0; i < kWorkers; ++i) {
    threads.emplace_back([&, i] {
      try {
        std::vector<WireWriter> sections(kWorkers);
        std::vector<std::uint64_t> counts(kWorkers, 0);
        for (std::size_t t = 0; t < kWorkers; ++t) {
          if (t == i) continue;
          std::vector<Word> pay(kWords);
          for (std::size_t w = 0; w < kWords; ++w) pay[w] = i * 1000 + t + w;
          sections[t].row(i, t, pay.data(), pay.size());
          counts[t] = 1;
        }
        auto frames =
            runtime::shard::meshExchange(mesh[i], i, counts, sections);
        for (std::size_t t = 0; t < kWorkers; ++t) {
          if (t == i) continue;
          const std::uint64_t count = frames[t].u64();
          ASSERT_EQ(count, 1u);
          mergeSectionRows(frames[t], count, t, t + 1, i, i + 1, received[i]);
        }
      } catch (...) {
        errors[i] = std::current_exception();
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (std::size_t i = 0; i < kWorkers; ++i) {
    if (errors[i]) std::rethrow_exception(errors[i]);
    for (std::size_t t = 0; t < kWorkers; ++t) {
      if (t == i) continue;
      ASSERT_EQ(received[i][t].size(), 1u) << i << " <- " << t;
      const Message& msg = received[i][t][0];
      EXPECT_EQ(msg.dst, i);
      ASSERT_EQ(msg.payload.size(), kWords);
      EXPECT_EQ(msg.payload[0], t * 1000 + i);
      EXPECT_EQ(msg.payload[kWords - 1], t * 1000 + i + kWords - 1);
    }
  }
}

}  // namespace
}  // namespace mpcspan
