// The shared-memory ring itself, in-process on a tiny arena: a small
// (in-place view) and an oversized (chunked) frame cross one 4 KiB ring
// pair in both directions; an aborted send rewinds without a trace and the
// ring stays usable; a corrupt length prefix is rejected as ShardError,
// never chased out of bounds; and the ring size knob rounds and clamps.
// Engine-level shm behavior lives in the transport suite (test_peer_exchange).
#include "runtime/shard/shm_ring.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include "runtime/shard/peer_mesh.hpp"
#include "runtime/shard/wire.hpp"

namespace mpcspan {
namespace {

using runtime::Message;
using runtime::shard::kMaxFrameBytes;
using runtime::shard::mergeSectionRows;
using runtime::shard::RingHdr;
using runtime::shard::ShardError;
using runtime::shard::ShmArena;
using runtime::shard::ShmSendState;
using runtime::shard::WireWriter;

/// Builds one single-row section (src -> dst, the given payload).
void fillSection(std::vector<WireWriter>& sections,
                 std::vector<std::uint64_t>& counts, std::size_t peer,
                 std::size_t src, std::size_t dst,
                 const std::vector<Word>& pay) {
  sections[peer].row(src, dst, pay.data(), pay.size());
  counts[peer] = 1;
}

TEST(ShmRing, DirectExchangeRoundTripContiguousAndChunked) {
  // Worker 0 sends a small (in-place view) frame, worker 1 an oversized
  // one (5x the ring) — both directions complete over one 4 KiB ring pair
  // and parse to the exact rows that went in.
  constexpr std::size_t kRing = 4096;
  ShmArena arena(2, kRing);
  auto mesh = runtime::shard::makeMesh(2);
  const std::vector<Word> small{1, 2, 3};
  std::vector<Word> big(kRing * 5 / sizeof(Word));
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = i * 11400714819323198485ull;

  std::vector<std::vector<std::vector<Message>>> got(
      2, std::vector<std::vector<Message>>(2));
  std::vector<std::exception_ptr> errors(2);
  std::vector<std::thread> threads;
  for (std::size_t self = 0; self < 2; ++self) {
    threads.emplace_back([&, self] {
      try {
        std::vector<WireWriter> sections(2);
        std::vector<std::uint64_t> counts(2, 0);
        fillSection(sections, counts, 1 - self, self, 1 - self,
                    self == 0 ? small : big);
        auto frames = runtime::shard::shmExchange(arena, mesh[self], self,
                                                  counts, sections);
        const std::uint64_t count = frames[1 - self].u64();
        ASSERT_EQ(count, 1u);
        mergeSectionRows(frames[1 - self], count, 1 - self, 2 - self, self,
                         self + 1, got[self]);
        arena.releaseInbound(self);
      } catch (...) {
        errors[self] = std::current_exception();
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (std::size_t self = 0; self < 2; ++self)
    if (errors[self]) std::rethrow_exception(errors[self]);
  ASSERT_EQ(got[1][0].size(), 1u);
  EXPECT_EQ(got[1][0][0].payload, small);
  ASSERT_EQ(got[0][1].size(), 1u);
  EXPECT_EQ(got[0][1][0].payload, big);
}

TEST(ShmRing, AbortRewindsProducedAndTheRingStaysUsable) {
  constexpr std::size_t kRing = 4096;
  ShmArena arena(2, kRing);
  auto mesh = runtime::shard::makeMesh(2);
  const std::vector<Word> pay{7, 8, 9};
  std::vector<WireWriter> sections(2);
  std::vector<std::uint64_t> counts(2, 0);
  fillSection(sections, counts, 1, 0, 1, pay);

  RingHdr& h = arena.hdr(0, 1);
  ASSERT_EQ(h.produced.load(), 0u);
  ShmSendState st =
      runtime::shard::beginShmSend(arena, 0, counts, sections, mesh[0]);
  EXPECT_GT(h.produced.load(), 0u);  // the frame was pre-written
  runtime::shard::abortShmSend(st);
  EXPECT_EQ(h.produced.load(), 0u);  // ...and rewound without a trace

  // The rewound ring carries the next (differently-sized) round cleanly.
  const std::vector<Word> pay2{42};
  std::vector<std::vector<std::vector<Message>>> got(
      2, std::vector<std::vector<Message>>(2));
  std::vector<std::exception_ptr> errors(2);
  std::vector<std::thread> threads;
  for (std::size_t self = 0; self < 2; ++self) {
    threads.emplace_back([&, self] {
      try {
        std::vector<WireWriter> s2(2);
        std::vector<std::uint64_t> c2(2, 0);
        fillSection(s2, c2, 1 - self, self, 1 - self, pay2);
        auto frames =
            runtime::shard::shmExchange(arena, mesh[self], self, c2, s2);
        const std::uint64_t count = frames[1 - self].u64();
        ASSERT_EQ(count, 1u);
        mergeSectionRows(frames[1 - self], count, 1 - self, 2 - self, self,
                         self + 1, got[self]);
        arena.releaseInbound(self);
      } catch (...) {
        errors[self] = std::current_exception();
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (std::size_t self = 0; self < 2; ++self)
    if (errors[self]) std::rethrow_exception(errors[self]);
  EXPECT_EQ(got[0][1][0].payload, pay2);
  EXPECT_EQ(got[1][0][0].payload, pay2);
}

TEST(ShmRing, CorruptLengthPrefixRejectedAsShardError) {
  // A garbage length prefix (beyond kMaxFrameBytes) planted in the inbound
  // ring must surface as ShardError on the very first pump — never chased
  // as a real frame length.
  constexpr std::size_t kRing = 4096;
  ShmArena arena(2, kRing);
  auto mesh = runtime::shard::makeMesh(2);
  {
    const std::uint64_t bad = kMaxFrameBytes + 1;
    std::memcpy(arena.data(1, 0), &bad, sizeof bad);
    arena.hdr(1, 0).produced.store(sizeof bad, std::memory_order_release);
  }
  std::vector<WireWriter> sections(2);
  std::vector<std::uint64_t> counts(2, 0);
  const std::vector<Word> pay{5};
  fillSection(sections, counts, 1, 0, 1, pay);
  EXPECT_THROW(
      runtime::shard::shmExchange(arena, mesh[0], 0, counts, sections),
      ShardError);

  // A sub-header length (< 8 bytes) is equally implausible.
  ShmArena arena2(2, kRing);
  {
    const std::uint64_t bad = 3;
    std::memcpy(arena2.data(1, 0), &bad, sizeof bad);
    arena2.hdr(1, 0).produced.store(sizeof bad, std::memory_order_release);
  }
  std::vector<WireWriter> s2(2);
  std::vector<std::uint64_t> c2(2, 0);
  fillSection(s2, c2, 1, 0, 1, pay);
  EXPECT_THROW(runtime::shard::shmExchange(arena2, mesh[0], 0, c2, s2),
               ShardError);
}

TEST(ShmRing, RingBytesEnvRoundsToPowerOfTwoWithinBounds) {
  ASSERT_EQ(::setenv("MPCSPAN_SHM_RING_BYTES", "5000", 1), 0);
  EXPECT_EQ(runtime::shard::defaultShmRingBytes(), 8192u);
  ASSERT_EQ(::setenv("MPCSPAN_SHM_RING_BYTES", "1", 1), 0);
  EXPECT_EQ(runtime::shard::defaultShmRingBytes(), 4096u);  // floor clamp
  ASSERT_EQ(::unsetenv("MPCSPAN_SHM_RING_BYTES"), 0);
  EXPECT_EQ(runtime::shard::defaultShmRingBytes(), std::size_t{1} << 20);
}

}  // namespace
}  // namespace mpcspan
