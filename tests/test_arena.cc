// The per-worker Arena allocator, its WordBuf surface, and the simd:: pass
// that the arena-backed contiguous layout enables, pinned against its
// obviously-correct scalar definition.
#include "runtime/arena.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "runtime/simd.hpp"
#include "runtime/types.hpp"
#include "util/rng.hpp"

namespace mpcspan {
namespace {

using runtime::Arena;
using runtime::WordBuf;

TEST(Arena, RoundCapacityIsPowerOfTwoWithCacheLineFloor) {
  EXPECT_EQ(Arena::roundCapacity(0), Arena::kMinRunWords);
  EXPECT_EQ(Arena::roundCapacity(1), Arena::kMinRunWords);
  EXPECT_EQ(Arena::roundCapacity(8), 8u);
  EXPECT_EQ(Arena::roundCapacity(9), 16u);
  EXPECT_EQ(Arena::roundCapacity(1024), 1024u);
  EXPECT_EQ(Arena::roundCapacity(1025), 2048u);
}

TEST(Arena, RecycleReusesTheExactRun) {
  Arena a;
  Word* p = a.allocate(100);  // lands in the 128-word class
  ASSERT_NE(p, nullptr);
  p[0] = 1;
  p[127] = 2;  // the full rounded capacity is writable
  a.recycle(p, Arena::roundCapacity(100));
  // Same size class -> the freed run comes straight back.
  Word* q = a.allocate(65);
  EXPECT_EQ(q, p);
  a.recycle(q, Arena::roundCapacity(65));
}

TEST(Arena, SteadyStateChurnReservesNoNewMemory) {
  Arena a;
  std::vector<Word*> runs;
  for (int i = 0; i < 64; ++i) runs.push_back(a.allocate(200));
  for (Word* p : runs) a.recycle(p, Arena::roundCapacity(200));
  const std::size_t reserved = a.reservedWords();
  for (int round = 0; round < 100; ++round) {
    runs.clear();
    for (int i = 0; i < 64; ++i) runs.push_back(a.allocate(200));
    for (Word* p : runs) a.recycle(p, Arena::roundCapacity(200));
  }
  EXPECT_EQ(a.reservedWords(), reserved);
}

TEST(Arena, OversizedRequestsGetTheirOwnChunk) {
  Arena a(/*minChunkWords=*/1 << 10);
  Word* big = a.allocate(1 << 14);  // far beyond the chunk size
  ASSERT_NE(big, nullptr);
  big[0] = 7;
  big[(1 << 14) - 1] = 8;
  a.recycle(big, Arena::roundCapacity(1 << 14));
  EXPECT_EQ(a.allocate(1 << 14), big);
}

TEST(WordBuf, VectorSurfaceOnArenaMemory) {
  Arena a;
  WordBuf b(&a);
  EXPECT_TRUE(b.empty());
  for (Word w = 0; w < 100; ++w) b.push_back(w * 3);
  EXPECT_EQ(b.size(), 100u);
  EXPECT_EQ(b[99], 297u);
  b.resize(200);  // grows zero-filled
  EXPECT_EQ(b[150], 0u);
  b.resize(4);
  EXPECT_EQ(b.size(), 4u);
  EXPECT_EQ((b = std::vector<Word>{9, 8, 7}).toVector(),
            (std::vector<Word>{9, 8, 7}));

  WordBuf c(&a);
  c = b;  // copy keeps both alive and equal
  EXPECT_EQ(b, c);
  WordBuf d(std::move(c));
  EXPECT_EQ(b, d);
  EXPECT_TRUE(c.empty());  // NOLINT(bugprone-use-after-move): spec'd empty
}

TEST(WordBuf, GrowthRecyclesTheOldRunToTheArena) {
  Arena a;
  WordBuf b(&a);
  b.resize(100);  // one 128-word run
  const Word* before = b.data();
  b.resize(1000);  // regrow: the 128-word run goes back to the arena
  EXPECT_NE(b.data(), before);
  EXPECT_EQ(a.allocate(100), before);  // ...and is immediately reusable
}

TEST(WordBuf, StandaloneHeapModeStillWorks) {
  WordBuf b;  // no arena attached
  for (Word w = 0; w < 1000; ++w) b.push_back(w);
  EXPECT_EQ(b.size(), 1000u);
  EXPECT_EQ(b[999], 999u);
}

// --- The simd pass: compiled path vs the scalar definition. ---

TEST(Simd, RunStartsMatchesScalarOnAdversarialKeys) {
  Rng rng(11);
  for (const std::size_t n : {0u, 1u, 3u, 4u, 5u, 64u, 1000u}) {
    // Few distinct keys -> runs of every length, including across the
    // 4-lane vector boundary.
    std::vector<Word> keys(n);
    for (Word& k : keys) k = rng() % 5;
    std::sort(keys.begin(), keys.end());
    std::vector<std::uint32_t> got, want;
    runtime::simd::runStarts(keys.data(), n, got);
    for (std::size_t i = 0; i < n; ++i)
      if (i == 0 || keys[i] != keys[i - 1])
        want.push_back(static_cast<std::uint32_t>(i));
    EXPECT_EQ(got, want) << "n " << n;
  }
}

}  // namespace
}  // namespace mpcspan
