#include "mpc/primitives.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "util/rng.hpp"

namespace mpcspan {
namespace {

struct KV {
  std::uint64_t key;
  double weight;
  std::uint32_t payload;
};

// Stateless orderings: the primitives run as registered kernels, so these
// cross into the shard workers by type (capturing lambdas are rejected at
// compile time).
struct KVKey {
  std::uint64_t operator()(const KV& kv) const { return kv.key; }
};
struct KVBetter {
  bool operator()(const KV& a, const KV& b) const {
    return a.weight < b.weight ||
           (a.weight == b.weight && a.payload < b.payload);
  }
};
struct KVByKey {
  // Exercises the flat-key route path (detail::PackedKeyWord) in tests.
  static constexpr std::size_t kPackedKeyWord = 0;
  bool operator()(const KV& a, const KV& b) const {
    if (a.key != b.key) return a.key < b.key;
    return KVBetter{}(a, b);
  }
};
struct KVWeightBetter {
  bool operator()(const KV& a, const KV& b) const { return a.weight < b.weight; }
};

TEST(PackUnpack, RoundTrips) {
  std::vector<KV> items{{1, 2.5, 3}, {4, 5.5, 6}};
  const auto words = packItems(items.data(), items.size());
  const auto back = unpackItems<KV>(words);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[1].key, 4u);
  EXPECT_DOUBLE_EQ(back[0].weight, 2.5);
  EXPECT_EQ(back[1].payload, 6u);
}

TEST(DistVector, DistributesWithinCapacity) {
  MpcSimulator sim(MpcConfig{4, 64});
  std::vector<std::uint64_t> data(100);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = i;
  DistVector<std::uint64_t> dv(sim, data);
  EXPECT_EQ(dv.size(), 100u);
  for (const auto& block : dv.blocksHostSide())
    EXPECT_LE(block.size(), sim.wordsPerMachine() / 2);
  EXPECT_EQ(dv.collectHostSide(), data);
}

TEST(DistVector, ThrowsWhenClusterTooSmall) {
  MpcSimulator sim(MpcConfig{2, 8});
  std::vector<std::uint64_t> data(100, 1);
  EXPECT_THROW((DistVector<std::uint64_t>(sim, data)), CapacityError);
}

/// Every machine's copy after a treeBroadcastWords call.
std::vector<std::vector<Word>> heldPayloads(MpcSimulator& sim) {
  runtime::RoundEngine& eng = sim.engine();
  return eng.fetchKernel(runtime::ensureKernel<BroadcastKernel>(eng));
}

TEST(TreeBroadcast, AllMachinesWithinLogRounds) {
  MpcSimulator sim(MpcConfig{16, 64});
  const std::size_t rounds = treeBroadcastWords(sim, {1, 2, 3});
  // branching = 64/3 = 21 >= 16, so one round suffices.
  EXPECT_EQ(rounds, 1u);
  EXPECT_EQ(sim.rounds(), 1u);
  EXPECT_EQ(heldPayloads(sim),
            std::vector<std::vector<Word>>(16, std::vector<Word>{1, 2, 3}));
}

TEST(TreeBroadcast, LargePayloadNeedsMoreRounds) {
  MpcSimulator sim(MpcConfig{27, 8});
  // branching B = max(2, 8/4) = 2; holders grow by (1+B)x per round, so
  // 27 machines need ceil(log3 27) = 3 rounds.
  const std::size_t rounds = treeBroadcastWords(sim, {1, 2, 3, 4});
  EXPECT_EQ(rounds, 3u);
  EXPECT_EQ(sim.rounds(), 3u);
  EXPECT_EQ(heldPayloads(sim),
            std::vector<std::vector<Word>>(27, std::vector<Word>{1, 2, 3, 4}));
}

class DistSortTest : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(DistSortTest, MatchesStdSort) {
  const auto [numMachines, n] = GetParam();
  MpcSimulator sim(MpcConfig{numMachines, std::max<std::size_t>(64, 4 * n / numMachines)});
  Rng rng(n * 31 + numMachines);
  std::vector<std::uint64_t> data(n);
  for (auto& x : data) x = rng.next(1000);
  DistVector<std::uint64_t> dv(sim, data);
  distSort(dv, std::less<>());

  std::vector<std::uint64_t> expected = data;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(dv.collectHostSide(), expected);

  // Blocks themselves are globally ordered.
  std::uint64_t prev = 0;
  for (const auto& block : dv.blocksHostSide())
    for (std::uint64_t x : block) {
      EXPECT_GE(x, prev);
      prev = x;
    }
  // O(1/gamma)-round budget: sample + broadcast + route.
  EXPECT_LE(sim.rounds(), 8u);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, DistSortTest,
    ::testing::Values(std::make_tuple(1u, 50u), std::make_tuple(4u, 200u),
                      std::make_tuple(8u, 1000u), std::make_tuple(16u, 4000u),
                      std::make_tuple(32u, 10000u)),
    [](const auto& info) {
      return "m" + std::to_string(std::get<0>(info.param)) + "_n" +
             std::to_string(std::get<1>(info.param));
    });

TEST(SegmentedMin, MatchesReferenceGroupBy) {
  Rng rng(77);
  const std::size_t n = 3000;
  std::vector<KV> data(n);
  for (std::size_t i = 0; i < n; ++i)
    data[i] = KV{rng.next(40), 1.0 + rng.uniform() * 9.0,
                 static_cast<std::uint32_t>(i)};

  MpcSimulator sim(MpcConfig{8, 4096});
  DistVector<KV> dv(sim, data);
  distSort(dv, KVByKey{});
  const std::vector<KV> reduced = segmentedMinSorted(dv, KVKey{}, KVBetter{});

  // Reference group-by-min.
  std::map<std::uint64_t, KV> ref;
  for (const KV& kv : data) {
    auto [it, inserted] = ref.try_emplace(kv.key, kv);
    if (!inserted && KVBetter{}(kv, it->second)) it->second = kv;
  }
  ASSERT_EQ(reduced.size(), ref.size());
  for (const KV& kv : reduced) {
    const KV& want = ref.at(kv.key);
    EXPECT_DOUBLE_EQ(kv.weight, want.weight);
    EXPECT_EQ(kv.payload, want.payload);
  }
}

TEST(SegmentedMin, SingleKeySpanningAllMachines) {
  const std::size_t n = 512;
  std::vector<KV> data(n);
  for (std::size_t i = 0; i < n; ++i)
    data[i] = KV{7, static_cast<double>(n - i), static_cast<std::uint32_t>(i)};
  MpcSimulator sim(MpcConfig{8, 512});
  DistVector<KV> dv(sim, data);
  // Data is one key; already "sorted by key".
  const std::vector<KV> reduced =
      segmentedMinSorted(dv, KVKey{}, KVWeightBetter{});
  ASSERT_EQ(reduced.size(), 1u);
  EXPECT_DOUBLE_EQ(reduced[0].weight, 1.0);
}

TEST(DistVectorSharded, SortAndSegMinOnWorkerOwnedBlocksMatchInProcess) {
  // The whole primitive pipeline — block storage, local sort, sampling,
  // splitter broadcast, the all-to-all route, the boundary fix-up — runs
  // against worker-owned state when the simulator is sharded; the result,
  // the round count, and the traffic ledger must match the in-process
  // engine bit for bit.
  Rng rng(99);
  const std::size_t n = 4000;
  std::vector<KV> data(n);
  for (std::size_t i = 0; i < n; ++i)
    data[i] = KV{rng.next(64), 1.0 + rng.uniform() * 9.0,
                 static_cast<std::uint32_t>(i)};

  struct Run {
    std::vector<std::vector<KV>> blocks;
    std::vector<KV> reduced;
    std::size_t rounds, words;
  };
  auto run = [&](std::size_t threads, std::size_t shards) {
    MpcSimulator sim(MpcConfig{16, 4096}, threads, shards);
    EXPECT_EQ(sim.numShards(), shards);
    DistVector<KV> dv(sim, data);
    distSort(dv, KVByKey{});
    Run r;
    r.reduced = segmentedMinSorted(dv, KVKey{}, KVBetter{});
    r.blocks = dv.blocksHostSide();
    r.rounds = sim.rounds();
    r.words = sim.totalWordsSent();
    return r;
  };
  const Run base = run(1, 1);
  for (std::size_t shards : {2u, 4u, 8u}) {
    const Run sharded = run(2, shards);
    EXPECT_EQ(sharded.rounds, base.rounds) << shards << " shards";
    EXPECT_EQ(sharded.words, base.words) << shards << " shards";
    ASSERT_EQ(sharded.blocks.size(), base.blocks.size());
    for (std::size_t m = 0; m < base.blocks.size(); ++m) {
      ASSERT_EQ(sharded.blocks[m].size(), base.blocks[m].size());
      for (std::size_t i = 0; i < base.blocks[m].size(); ++i) {
        EXPECT_EQ(sharded.blocks[m][i].key, base.blocks[m][i].key);
        EXPECT_EQ(sharded.blocks[m][i].payload, base.blocks[m][i].payload);
      }
    }
    ASSERT_EQ(sharded.reduced.size(), base.reduced.size());
    for (std::size_t i = 0; i < base.reduced.size(); ++i) {
      EXPECT_EQ(sharded.reduced[i].key, base.reduced[i].key);
      EXPECT_EQ(sharded.reduced[i].payload, base.reduced[i].payload);
    }
  }
}

TEST(SegmentedMin, EmptyInput) {
  MpcSimulator sim(MpcConfig{4, 64});
  DistVector<KV> dv(sim, {});
  EXPECT_TRUE(segmentedMinSorted(dv, KVKey{}, KVWeightBetter{}).empty());
}

}  // namespace
}  // namespace mpcspan
