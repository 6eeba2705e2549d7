// The one pipelined STEP barrier's own contracts. Every round's waits draw
// down one shared DeadlineBudget, so a peer that trickles bytes cannot reset
// a per-wait timeout forever, while an unbudgeted exchange waits such a peer
// out. And the MpcTopology split contract the barrier
// rests on: validateSources over every shard slice plus validateInbound over
// the summed inbound words, and whole-round validate(), must both agree with
// an oracle of the model's rules. Exchange equivalence and failure modes live
// in test_peer_exchange.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "runtime/round_engine.hpp"
#include "runtime/shard/peer_mesh.hpp"
#include "runtime/shard/transport.hpp"
#include "runtime/shard/wire.hpp"
#include "runtime/shard/worker_loop.hpp"
#include "runtime/topology.hpp"
#include "util/rng.hpp"

namespace mpcspan {
namespace {

using runtime::Message;
using runtime::MpcTopology;
using runtime::shard::DeadlineBudget;
using runtime::shard::ShardError;
using runtime::shard::WireFd;
using runtime::shard::WireReader;
using runtime::shard::WireWriter;

/// A valid empty section frame (u64 bodyLen = 8, u64 rowCount = 0,
/// little-endian), the unit the trickling peer dribbles out.
constexpr std::uint8_t kEmptyFrame[16] = {8, 0, 0, 0, 0, 0, 0, 0,
                                          0, 0, 0, 0, 0, 0, 0, 0};

TEST(PeerMesh, TricklingPeerIsBoundedOrCompletes) {
  // A peer that keeps the connection alive but trickles one byte every
  // 50 ms makes progress on every poll wait — a per-wait timeout would
  // reset forever. The shared round budget must fail the exchange once the
  // *total* wait crosses it, while the same trickle without a budget still
  // completes.
  const std::vector<std::uint64_t> counts(2, 0);
  const std::vector<WireWriter> sections(2);
  const auto trickle = [](const WireFd& fd) {
    for (const std::uint8_t byte : kEmptyFrame) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      ASSERT_EQ(::send(fd.fd(), &byte, 1, MSG_NOSIGNAL), 1);
    }
  };
  // Worker 0's mesh row: row[1] is its end of the pair with peer 1.
  const auto meshRow = [](WireFd& peerEnd) {
    std::vector<WireFd> row(2);
    runtime::shard::makeSocketPair(row[1], peerEnd);
    return row;
  };
  {
    WireFd peerEnd;
    std::vector<WireFd> row = meshRow(peerEnd);
    std::thread peer([&] { trickle(peerEnd); });
    const DeadlineBudget budget(250);
    EXPECT_THROW(
        runtime::shard::meshExchange(row, 0, counts, sections, &budget),
        ShardError);
    peer.join();
  }
  WireFd peerEnd;
  std::vector<WireFd> row = meshRow(peerEnd);
  std::thread peer([&] { trickle(peerEnd); });
  std::vector<WireReader> frames =
      runtime::shard::meshExchange(row, 0, counts, sections);
  peer.join();
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[1].u64(), 0u);  // the trickled frame, intact
  EXPECT_TRUE(frames[1].atEnd());
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

// --- The MpcTopology split contract: validate() and the sharded split
// (validateSources over every slice plus validateInbound over the summed
// inbound words) must each accept or reject exactly when the model's rules
// say so, with the same exception type and the same word total. The
// reference is an oracle written from the rules themselves, not from any
// MpcTopology code. ---

enum class Verdict { kOk, kCapacity, kBounds };

struct Outcome {
  Verdict verdict = Verdict::kOk;
  std::size_t words = 0;  // meaningful only for kOk

  friend bool operator==(const Outcome&, const Outcome&) = default;
};

/// The MPC rules: every machine sends and receives at most `cap` words.
/// Any destination outside [0, n) is a bounds error first.
Outcome oracle(std::size_t cap, std::size_t n,
               const std::vector<std::vector<Message>>& outboxes) {
  for (const auto& out : outboxes)
    for (const Message& msg : out)
      if (msg.dst >= n) return {Verdict::kBounds, 0};
  std::size_t words = 0;
  std::vector<std::size_t> received(n, 0);
  for (std::size_t src = 0; src < n; ++src) {
    std::size_t sent = 0;
    for (const Message& msg : outboxes[src]) {
      sent += msg.payload.size();
      received[msg.dst] += msg.payload.size();
    }
    if (sent > cap) return {Verdict::kCapacity, 0};
    words += sent;
  }
  for (std::size_t m = 0; m < n; ++m)
    if (received[m] > cap) return {Verdict::kCapacity, 0};
  return {Verdict::kOk, words};
}

template <class Fn>
Outcome outcomeOf(Fn&& validateRound) {
  try {
    return {Verdict::kOk, validateRound()};
  } catch (const CapacityError&) {
    return {Verdict::kCapacity, 0};
  } catch (const std::invalid_argument&) {
    return {Verdict::kBounds, 0};
  }
}

/// The sharded barrier's composition. Like the workers, it bounds-checks
/// destinations before any topology half sees them.
Outcome validateSplit(const MpcTopology& topo, std::size_t n, std::size_t shards,
                      const std::vector<std::vector<Message>>& outboxes) {
  return outcomeOf([&] {
    for (const auto& out : outboxes)
      for (const Message& msg : out)
        if (msg.dst >= n) throw std::invalid_argument("unknown machine");
    std::size_t words = 0;
    for (std::size_t s = 0; s < shards; ++s) {
      const std::size_t lo = runtime::shard::shardRangeBegin(n, shards, s);
      const std::size_t hi = runtime::shard::shardRangeEnd(n, shards, s);
      const std::vector<std::vector<Message>> slice(outboxes.begin() + lo,
                                                    outboxes.begin() + hi);
      words += topo.validateSources(slice, lo);
    }
    std::vector<std::uint64_t> received(n, 0);
    for (const auto& out : outboxes)
      for (const Message& msg : out) received[msg.dst] += msg.payload.size();
    topo.validateInbound(received);
    return words;
  });
}

/// One seeded random round shaped to hit every MPC rule: over-budget sends
/// and receives, and the odd out-of-range destination.
std::vector<std::vector<Message>> randomRound(std::size_t n, Rng& rng) {
  std::vector<std::vector<Message>> out(n);
  for (std::size_t src = 0; src < n; ++src) {
    const std::size_t count = rng.next(5);
    for (std::size_t i = 0; i < count; ++i) {
      std::size_t dst = rng.next(n);
      if (rng.next(40) == 0) dst = n + rng.next(3);
      const std::size_t len = rng.next(5);
      std::vector<Word> pay(len);
      for (Word& w : pay) w = rng.next(1000);
      out[src].push_back({dst, std::move(pay)});
    }
  }
  return out;
}

TEST(TopologySplit, ValidateAndSplitMatchTheModelRules) {
  constexpr std::size_t kCap = 8;
  Rng rng(20210712);
  const MpcTopology topo(kCap);
  std::size_t seen[3] = {0, 0, 0};
  for (int round = 0; round < 600; ++round) {
    const std::size_t n = 2 + rng.next(7);
    const auto outboxes = randomRound(n, rng);
    const Outcome expected = oracle(kCap, n, outboxes);
    ++seen[static_cast<int>(expected.verdict)];
    ASSERT_EQ(outcomeOf([&] { return topo.validate(n, outboxes); }), expected)
        << "round " << round << ", validate()";
    for (const std::size_t shards : {std::size_t{1}, std::size_t{2}, n})
      ASSERT_EQ(validateSplit(topo, n, shards, outboxes), expected)
          << "round " << round << ", " << shards << " shards";
  }
  // The rounds must exercise acceptance and both rejection kinds.
  EXPECT_GT(seen[0], 0u);
  EXPECT_GT(seen[1], 0u);
  EXPECT_GT(seen[2], 0u);
}

}  // namespace
}  // namespace mpcspan
