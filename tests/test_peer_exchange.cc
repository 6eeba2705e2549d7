// Cross-shard exchange over the two shard transports — shared-memory rings
// between same-host workers and the tcp mesh formed by rendezvous — under
// one parameterized suite: kernel rounds over either transport must be
// bit-identical to the in-process engine (rounds, ledger, kernel state,
// resident inbox contents) on all three topologies at 2 and 4 shards x 1
// and 2 threads, and every failure mode — a kernel throw mid-round, a
// capacity abort, a peer dying mid-exchange, 1.6 MB frames through 4 KiB
// rings — must behave the same on both. Also here: the section/wire
// decoders both transports feed. The barrier's own contracts (round
// budget, Topology split validation) live in test_pipeline.
#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "runtime/round_engine.hpp"
#include "runtime/shard/peer_mesh.hpp"
#include "runtime/shard/sharded_engine.hpp"
#include "runtime/shard/wire.hpp"
#include "runtime/shard/worker_loop.hpp"
#include "runtime/topology.hpp"
#include "probe_kernels.hpp"

namespace mpcspan {
namespace {

using runtime::CliqueTopology;
using runtime::Delivery;
using runtime::EngineConfig;
using runtime::KernelCtx;
using runtime::KernelId;
using runtime::Message;
using runtime::MpcTopology;
using runtime::PramTopology;
using runtime::RoundEngine;
using runtime::StepKernel;
using runtime::Transport;
using runtime::shard::mergeSectionRows;
using runtime::shard::ShardError;
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

KernelId registerProbe(RoundEngine& eng) {
  return eng.registerKernel(ProbeKernel::kernelName(),
                            [] { return std::make_unique<ProbeKernel>(); });
}

Result runWorkload(int mode, std::size_t threads, std::size_t shards,
                   Transport transport) {
  RoundEngine eng(EngineConfig{12, threads, shards, transport},
                  probeTopology(mode));
  const KernelId k = registerProbe(eng);
  for (int i = 0; i < 5; ++i) eng.step(k, {static_cast<Word>(mode)});
  // One free data-placement round rides the same exchange machinery.
  eng.stepShuffle(k, {static_cast<Word>(mode)});
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

class ShardTransport : public ::testing::TestWithParam<Transport> {};

INSTANTIATE_TEST_SUITE_P(
    Both, ShardTransport, ::testing::Values(Transport::kShmRing, Transport::kTcp),
    [](const ::testing::TestParamInfo<Transport>& info) {
      return std::string(info.param == Transport::kTcp ? "tcp" : "shm");
    });

TEST_P(ShardTransport, BitIdenticalToInProcessOnAllTopologies) {
  for (const int mode : {0, 1, 2}) {
    const Result base = runWorkload(mode, 1, 1, GetParam());
    EXPECT_EQ(base.rounds, 5u) << "mode " << mode;
    for (const std::size_t shards : {2u, 4u})
      for (const std::size_t threads : {1u, 2u})
        EXPECT_EQ(base, runWorkload(mode, threads, shards, GetParam()))
            << "mode " << mode << ", " << shards << " shards x " << threads
            << " threads";
  }
}

TEST_P(ShardTransport, BackendReportsTheSelectedTransport) {
  RoundEngine eng(EngineConfig{8, 1, 2, GetParam()},
                  std::make_unique<MpcTopology>(16));
  EXPECT_EQ(eng.numShards(), 2u);
  EXPECT_EQ(eng.shmRingShards(), GetParam() == Transport::kShmRing);
  EXPECT_EQ(eng.tcpMeshShards(), GetParam() == Transport::kTcp);
  EXPECT_EQ(eng.shardBackend()->transport(), GetParam());
}

/// Emissions are a pure function of the inbox, so a correctly discarded
/// abort leaves no trace; args[0] makes machine 5 throw.
class ThrowerKernel final : public StepKernel {
 public:
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

TEST_P(ShardTransport, KernelThrowMidRoundAbortsCleanly) {
  // The abort lands while the workers have already exchanged and staged the
  // round into their back buffers. Discarding it must leave the resident
  // inboxes, ledger, and worker processes exactly as before the round — and
  // the rounds after the abort must match an engine that never tried it.
  RoundEngine ref(EngineConfig{12, 1, 1}, std::make_unique<MpcTopology>(64));
  RoundEngine eng(EngineConfig{12, 1, 4, GetParam()},
                  std::make_unique<MpcTopology>(64));
  const auto factory = [] { return std::make_unique<ThrowerKernel>(); };
  const KernelId kr = ref.registerKernel("test.thrower", factory);
  const KernelId ke = eng.registerKernel("test.thrower", factory);
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

TEST_P(ShardTransport, CapacityAbortKeepsStateAndWorkers) {
  // A receive-budget violation is only visible at the coordinator, over
  // the summed inbound words — after every section already moved. The
  // round must still abort with the in-process error type, consume
  // nothing, and leave the workers usable.
  class Flooder final : public StepKernel {
   public:
    std::vector<Message> step(const KernelCtx& ctx) override {
      if (!ctx.args.empty())
        return {{0, {1, 2, 3, 4, 5}}};  // 8 machines x 5 words > cap 16
      return {{(ctx.machine + 5) % ctx.numMachines, {ctx.machine + 7}}};
    }
  };
  RoundEngine eng(EngineConfig{8, 1, 4, GetParam()},
                  std::make_unique<MpcTopology>(16));
  const KernelId k =
      eng.registerKernel("test.flooder", [] { return std::make_unique<Flooder>(); });
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

TEST_P(ShardTransport, PeerDeathMidExchangeSurfacesShardErrorForAll) {
  // The injected fault (MPCSPAN_TEST_PEER_DIE_SHARD, read at worker start)
  // kills shard 1 right before its report, as every peer enters its
  // exchange. Every other worker must observe the dead peer, the engine
  // must fail loudly (not hang), stay failed, and reap every worker.
  ASSERT_EQ(::setenv("MPCSPAN_TEST_PEER_DIE_SHARD", "1", 1), 0);
  std::vector<pid_t> pids;
  {
    RoundEngine eng(EngineConfig{8, 1, 4, GetParam()},
                    std::make_unique<MpcTopology>(32));
    const KernelId k = registerProbe(eng);
    // Start the workers on a round that does not reach the fault hook.
    std::vector<std::vector<Message>> out(8);
    out[0].push_back({7, {1}});
    eng.exchange(std::move(out));
    pids = eng.shardBackend()->workerPids();
    ASSERT_EQ(pids.size(), 4u);
    EXPECT_THROW(eng.step(k), ShardError);
    EXPECT_THROW(eng.step(k), ShardError);  // the backend stays failed
  }
  ASSERT_EQ(::unsetenv("MPCSPAN_TEST_PEER_DIE_SHARD"), 0);
  expectReaped(pids);
}

/// Emits one ~1.6 MB payload per machine per round — hundreds of ring
/// lengths under MPCSPAN_SHM_RING_BYTES=4096 and thousands of loopback
/// segments, so every frame must stream with backpressure.
class BigFrameKernel final : public StepKernel {
 public:
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

TEST_P(ShardTransport, BigFramesStreamThroughTinyRings) {
  ASSERT_EQ(::setenv("MPCSPAN_SHM_RING_BYTES", "4096", 1), 0);
  auto run = [&](std::size_t shards) {
    RoundEngine eng(EngineConfig{4, 1, shards, GetParam()},
                    std::make_unique<MpcTopology>(BigFrameKernel::kWords));
    const KernelId k = eng.registerKernel(
        "test.bigframe", [] { return std::make_unique<BigFrameKernel>(); });
    eng.step(k);
    eng.step(k);
    return observe(eng, k);
  };
  const Result base = run(1);
  for (const std::size_t shards : {2u, 4u})
    EXPECT_EQ(base, run(shards)) << shards << " shards, 1.6 MB frames";
  ASSERT_EQ(::unsetenv("MPCSPAN_SHM_RING_BYTES"), 0);
}

TEST_P(ShardTransport, ExchangeRoundsAndBlocksRideTheBackend) {
  // The non-kernel surfaces — coordinator-built exchange rounds and
  // worker-resident blocks — must match the in-process engine too.
  RoundEngine sharded(EngineConfig{6, 1, 3, GetParam()},
                      std::make_unique<MpcTopology>(64));
  RoundEngine ref(EngineConfig{6, 1, 1}, std::make_unique<MpcTopology>(64));
  std::vector<std::vector<std::vector<Delivery>>> inboxes;
  for (RoundEngine* eng : {&sharded, &ref}) {
    std::vector<std::vector<Word>> per(6);
    for (std::size_t m = 0; m < 6; ++m) per[m] = {m * 10 + 1, m * 10 + 2};
    const std::uint64_t h = eng->createBlocks(per);
    std::vector<std::vector<Message>> out(6);
    for (std::size_t m = 0; m < 6; ++m)
      out[m].push_back({(m + 1) % 6, {m, m ^ 7}});
    inboxes.push_back(eng->exchange(std::move(out)));
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

// --- The section decoder both transports feed: corrupt frames are rejected
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
  auto mesh = runtime::shard::makeMesh(kWorkers);
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
