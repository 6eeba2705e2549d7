// The one pipelined STEP barrier's own contracts. Every round's waits draw
// down one shared DeadlineBudget, so a peer that trickles bytes cannot reset
// a per-wait timeout forever (tcp mesh); same-host shm rings carry no budget
// and must wait such a peer out. And the Topology split contract the barrier
// rests on: validateSources over every shard slice plus validateInbound over
// the summed inbound words must agree with whole-round validate(). Exchange
// equivalence and failure modes live in test_peer_exchange.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "runtime/round_engine.hpp"
#include "runtime/shard/peer_mesh.hpp"
#include "runtime/shard/shm_ring.hpp"
#include "runtime/shard/transport.hpp"
#include "runtime/shard/wire.hpp"
#include "runtime/shard/worker_loop.hpp"
#include "runtime/topology.hpp"
#include "util/rng.hpp"
#include "probe_kernels.hpp"

namespace mpcspan {
namespace {

using runtime::Message;
using runtime::MpcTopology;
using runtime::Topology;
using runtime::Transport;
using runtime::shard::DeadlineBudget;
using runtime::shard::ShardError;
using runtime::shard::WireReader;
using runtime::shard::WireWriter;
using test_kernels::probeTopology;

class ShardTransport : public ::testing::TestWithParam<Transport> {};

INSTANTIATE_TEST_SUITE_P(
    Both, ShardTransport, ::testing::Values(Transport::kShmRing, Transport::kTcp),
    [](const ::testing::TestParamInfo<Transport>& info) {
      return std::string(info.param == Transport::kTcp ? "tcp" : "shm");
    });

/// A valid empty section frame (u64 bodyLen = 8, u64 rowCount = 0,
/// little-endian), the unit both trickle tests dribble out.
constexpr std::uint8_t kEmptyFrame[16] = {8, 0, 0, 0, 0, 0, 0, 0,
                                          0, 0, 0, 0, 0, 0, 0, 0};

TEST_P(ShardTransport, TricklingPeerIsBoundedOrCompletes) {
  const std::vector<std::uint64_t> counts(2, 0);
  const std::vector<WireWriter> sections(2);
  if (GetParam() == Transport::kTcp) {
    // The tcp mesh's data path: a peer that keeps the connection alive but
    // trickles one byte every 50 ms makes progress on every poll wait — a
    // per-wait timeout would reset forever. The shared round budget must
    // fail the exchange once the *total* wait crosses it, while the same
    // trickle without a budget still completes.
    const auto trickle = [](const runtime::shard::WireFd& fd) {
      for (const std::uint8_t byte : kEmptyFrame) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        ASSERT_EQ(::send(fd.fd(), &byte, 1, MSG_NOSIGNAL), 1);
      }
    };
    {
      auto mesh = runtime::shard::makeMesh(2);
      std::thread peer([&] { trickle(mesh[1][0]); });
      const DeadlineBudget budget(250);
      EXPECT_THROW(runtime::shard::meshExchange(mesh[0], 0, counts, sections,
                                                &budget),
                   ShardError);
      peer.join();
    }
    auto mesh = runtime::shard::makeMesh(2);
    std::thread peer([&] { trickle(mesh[1][0]); });
    std::vector<WireReader> frames =
        runtime::shard::meshExchange(mesh[0], 0, counts, sections);
    peer.join();
    ASSERT_EQ(frames.size(), 2u);
    EXPECT_EQ(frames[1].u64(), 0u);  // the trickled frame, intact
    return;
  }
  // The shm ring: same-host workers carry no round budget (a dead peer
  // always surfaces as doorbell EOF), so a peer that publishes its frame
  // one byte at a time, ringing the doorbell after each, must simply be
  // waited out and parsed intact.
  runtime::shard::ShmArena arena(2, 4096);
  auto mesh = runtime::shard::makeMesh(2);
  std::thread peer([&] {
    runtime::shard::RingHdr& h = arena.hdr(1, 0);
    for (std::size_t i = 0; i < sizeof kEmptyFrame; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      arena.data(1, 0)[i] = kEmptyFrame[i];
      h.produced.store(i + 1, std::memory_order_release);
      const std::uint8_t bell = 1;
      ASSERT_EQ(::send(mesh[1][0].fd(), &bell, 1, MSG_NOSIGNAL), 1);
    }
  });
  std::vector<WireReader> frames =
      runtime::shard::shmExchange(arena, mesh[0], 0, counts, sections);
  peer.join();
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[1].u64(), 0u);
  EXPECT_TRUE(frames[1].atEnd());
  arena.releaseInbound(0);
}

TEST(DeadlineBudget, SpendsOneBudgetAcrossWaits) {
  {
    const DeadlineBudget unbounded(-1);
    EXPECT_FALSE(unbounded.bounded());
    EXPECT_EQ(unbounded.remainingMs(), -1);
    EXPECT_FALSE(unbounded.expired());
  }
  const DeadlineBudget budget(200);
  EXPECT_TRUE(budget.bounded());
  EXPECT_EQ(budget.totalMs(), 200);
  EXPECT_GT(budget.remainingMs(), 0);
  EXPECT_FALSE(budget.expired());
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  EXPECT_EQ(budget.remainingMs(), 0);  // clamped, never negative
  EXPECT_TRUE(budget.expired());
}

// --- The Topology split contract: validateSources over every slice plus
// validateInbound over the summed inbound words must accept or reject
// exactly when validate() does, with the same exception type and the same
// word total. The one STEP barrier validates kernel rounds this way only. ---

enum class Verdict { kOk, kCapacity, kBounds };

struct Outcome {
  Verdict verdict = Verdict::kOk;
  std::size_t words = 0;  // meaningful only for kOk

  friend bool operator==(const Outcome&, const Outcome&) = default;
};

/// The engine vets destinations before any topology sees a round.
bool destinationsInRange(std::size_t n,
                         const std::vector<std::vector<Message>>& outboxes) {
  for (const auto& out : outboxes)
    for (const Message& msg : out)
      if (msg.dst >= n) return false;
  return true;
}

Outcome validateWhole(const Topology& topo, std::size_t n,
                      const std::vector<std::vector<Message>>& outboxes) {
  if (!destinationsInRange(n, outboxes)) return {Verdict::kBounds, 0};
  try {
    return {Verdict::kOk, topo.validate(n, outboxes)};
  } catch (const CapacityError&) {
    return {Verdict::kCapacity, 0};
  }
}

Outcome validateSplit(const Topology& topo, std::size_t n, std::size_t shards,
                      const std::vector<std::vector<Message>>& outboxes) {
  if (!destinationsInRange(n, outboxes)) return {Verdict::kBounds, 0};
  try {
    std::size_t words = 0;
    for (std::size_t s = 0; s < shards; ++s) {
      const std::size_t lo = runtime::shard::shardRangeBegin(n, shards, s);
      const std::size_t hi = runtime::shard::shardRangeEnd(n, shards, s);
      const std::vector<std::vector<Message>> slice(outboxes.begin() + lo,
                                                    outboxes.begin() + hi);
      words += topo.validateSources(n, slice, lo);
    }
    if (topo.needsInboundSums()) {
      std::vector<std::uint64_t> received(n, 0);
      for (const auto& out : outboxes)
        for (const Message& msg : out) received[msg.dst] += msg.payload.size();
      topo.validateInbound(n, received);
    }
    return {Verdict::kOk, words};
  } catch (const CapacityError&) {
    return {Verdict::kCapacity, 0};
  }
}

/// One seeded random round shaped to hit every rule of `mode`'s model:
/// over-budget sends and receives (MPC), duplicate pairs and multi-word
/// payloads (clique, PRAM), and the odd out-of-range destination.
std::vector<std::vector<Message>> randomRound(int mode, std::size_t n,
                                              Rng& rng) {
  std::vector<std::vector<Message>> out(n);
  for (std::size_t src = 0; src < n; ++src) {
    const std::size_t count = rng.next(mode == 0 ? 5 : 4);
    for (std::size_t i = 0; i < count; ++i) {
      std::size_t dst = rng.next(n);
      if (rng.next(40) == 0) dst = n + rng.next(3);
      std::size_t len = 1;
      if (mode == 0)
        len = rng.next(5);
      else if (rng.next(12) == 0)
        len = 2 + rng.next(2);
      std::vector<Word> pay(len);
      for (Word& w : pay) w = rng.next(1000);
      out[src].push_back({dst, std::move(pay)});
    }
  }
  return out;
}

TEST(TopologySplit, SourcesPlusInboundMatchWholeValidation) {
  Rng rng(20210712);
  for (const int mode : {0, 1, 2}) {
    const std::unique_ptr<Topology> topo =
        mode == 0 ? std::unique_ptr<Topology>(new MpcTopology(8))
                  : probeTopology(mode);
    std::size_t seen[3] = {0, 0, 0};
    for (int round = 0; round < 600; ++round) {
      const std::size_t n = 2 + rng.next(7);
      const auto outboxes = randomRound(mode, n, rng);
      const Outcome whole = validateWhole(*topo, n, outboxes);
      ++seen[static_cast<int>(whole.verdict)];
      for (const std::size_t shards : {std::size_t{1}, std::size_t{2}, n})
        ASSERT_EQ(validateSplit(*topo, n, shards, outboxes), whole)
            << topo->name() << " round " << round << ", " << shards
            << " shards";
    }
    // The rounds must exercise acceptance and both rejection kinds.
    EXPECT_GT(seen[0], 0u) << topo->name();
    EXPECT_GT(seen[1], 0u) << topo->name();
    EXPECT_GT(seen[2], 0u) << topo->name();
  }
}

}  // namespace
}  // namespace mpcspan
