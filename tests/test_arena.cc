// The per-worker Arena allocator, its WordBuf surface, Payload's borrowed
// (zero-copy) mode, and the simd:: passes that the arena-backed contiguous
// layout enables. The simd tests pin each pass against the obviously-correct
// scalar definition or the std:: algorithm it stands for.
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
using runtime::Payload;
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

TEST(Arena, ResetRewindsWithoutReleasingChunks) {
  Arena a;
  for (int i = 0; i < 32; ++i) (void)a.allocate(1000);
  const std::size_t reserved = a.reservedWords();
  a.reset();
  EXPECT_EQ(a.reservedWords(), reserved);
  // Post-reset allocations reuse the rewound chunks.
  for (int i = 0; i < 32; ++i) ASSERT_NE(a.allocate(1000), nullptr);
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

TEST(Payload, BorrowedWrapsWithoutCopyAndCopiesEscapeTheBorrow) {
  std::vector<Word> backing{10, 20, 30, 40};
  Payload p = Payload::borrowed(backing.data(), backing.size());
  EXPECT_EQ(p.size(), 4u);
  EXPECT_EQ(p.data(), backing.data());  // zero-copy: same words
  backing[2] = 77;
  EXPECT_EQ(p[2], 77u);  // the borrow sees the owner's writes

  Payload copy = p;  // copies deep-copy: they outlive the owner
  EXPECT_NE(copy.data(), backing.data());
  backing[0] = 999;
  EXPECT_EQ(copy[0], 10u);
  EXPECT_EQ(copy.size(), 4u);

  // Single words go inline even when "borrowed" — no dangling possible.
  Payload one = Payload::borrowed(backing.data(), 1);
  EXPECT_NE(one.data(), backing.data());
  EXPECT_EQ(one.front(), 999u);
}

// --- simd passes: compiled path vs the scalar definition. ---

TEST(Simd, GatherStrideMatchesScalar) {
  Rng rng(7);
  std::vector<Word> base(4096);
  for (Word& w : base) w = rng();
  for (const std::size_t stride : {1u, 2u, 3u, 5u, 8u}) {
    for (const std::size_t offset :
         {std::size_t{0}, std::size_t{1}, std::size_t{stride - 1}}) {
      const std::size_t count = (base.size() - offset) / stride;
      std::vector<Word> got(count), want(count);
      runtime::simd::gatherStride(base.data(), offset, stride, count,
                                  got.data());
      for (std::size_t i = 0; i < count; ++i)
        want[i] = base[i * stride + offset];
      EXPECT_EQ(got, want) << "stride " << stride << " offset " << offset;
    }
  }
}

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

TEST(Simd, BoundsMatchStdAlgorithmsIncludingUnsignedExtremes) {
  // Keys spanning the sign bit: the bounds must agree with
  // std::upper_bound / lower_bound on unsigned order.
  std::vector<Word> keys{0, 1, 5, 5, 5, 9, 1ull << 62, ~Word{0} - 1,
                         ~Word{0}, ~Word{0}};
  for (const Word probe :
       {Word{0}, Word{4}, Word{5}, Word{6}, Word{10}, Word{1} << 62,
        ~Word{0} - 1, ~Word{0}}) {
    const auto ub = static_cast<std::size_t>(
        std::upper_bound(keys.begin(), keys.end(), probe) - keys.begin());
    const auto lb = static_cast<std::size_t>(
        std::lower_bound(keys.begin(), keys.end(), probe) - keys.begin());
    EXPECT_EQ(runtime::simd::upperBoundFrom(keys.data(), 0, keys.size(), probe),
              ub)
        << "probe " << probe;
    EXPECT_EQ(runtime::simd::lowerBoundFrom(keys.data(), 0, keys.size(), probe),
              lb)
        << "probe " << probe;
  }
  // Resumable scan: starting from a prior bound returns the same index.
  EXPECT_EQ(runtime::simd::upperBoundFrom(keys.data(), 5, keys.size(), Word{9}),
            6u);
}

}  // namespace
}  // namespace mpcspan
