// The round-engine runtime: MPC budget enforcement, deterministic delivery,
// and — the core guarantee — bit-identical results for every thread count
// (rounds, traffic totals, and message contents).
#include "runtime/round_engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "runtime/thread_pool.hpp"
#include "probe_kernels.hpp"

namespace mpcspan {
namespace {

using runtime::Delivery;
using runtime::EngineConfig;
using runtime::Message;
using runtime::MpcTopology;
using runtime::RoundEngine;
using runtime::ThreadPool;
using test_kernels::Outboxes;
using test_kernels::registerScript;
using test_kernels::scriptedRound;

RoundEngine makeMpcEngine(std::size_t machines, std::size_t capacity,
                          std::size_t threads) {
  return RoundEngine(EngineConfig{machines, threads},
                     MpcTopology(capacity));
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.numThreads(), 4u);
  std::vector<int> hits(100000, 0);
  pool.parallelFor(hits.size(), [&](std::size_t i) { ++hits[i]; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0),
            static_cast<int>(hits.size()));
}

TEST(ThreadPool, ParallelForChunksMatchesSerialChunking) {
  ThreadPool pool(3);
  std::vector<std::pair<std::size_t, std::size_t>> chunks(4);
  pool.parallelForChunks(10, 3, [&](std::size_t b, std::size_t e) {
    chunks[b / 3] = {b, e};
  });
  EXPECT_EQ(chunks[0], (std::pair<std::size_t, std::size_t>{0, 3}));
  EXPECT_EQ(chunks[3], (std::pair<std::size_t, std::size_t>{9, 10}));
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallelFor(1000,
                                [](std::size_t i) {
                                  if (i == 617) throw std::runtime_error("boom");
                                }),
               std::runtime_error);
  // The pool survives an exceptional job.
  std::atomic<int> count{0};
  pool.parallelFor(64, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPool, EnvDefaultIsAtLeastOne) {
  EXPECT_GE(ThreadPool::defaultThreads(), 1u);
}

TEST(RoundEngine, RejectsBadConfig) {
  EXPECT_THROW(makeMpcEngine(0, 8, 1), std::invalid_argument);
}

TEST(RoundEngine, DeliversInSourceOrder) {
  RoundEngine eng = makeMpcEngine(4, 16, 2);
  std::vector<std::vector<Message>> out(4);
  out[3].push_back({1, {30}});
  out[0].push_back({1, {10, 11}});
  out[0].push_back({1, {12}});
  out[2].push_back({1, {20}});
  const auto inbox = scriptedRound(eng, std::move(out));
  ASSERT_EQ(inbox[1].size(), 4u);
  EXPECT_EQ(inbox[1][0].src, 0u);
  EXPECT_EQ(inbox[1][0].payload, (std::vector<Word>{10, 11}));
  EXPECT_EQ(inbox[1][1].payload, (std::vector<Word>{12}));
  EXPECT_EQ(inbox[1][2].src, 2u);
  EXPECT_EQ(inbox[1][3].src, 3u);
  EXPECT_EQ(eng.rounds(), 1u);
  EXPECT_EQ(eng.totalWordsSent(), 5u);
  EXPECT_EQ(eng.maxRoundWords(), 5u);
}

TEST(RoundEngine, MpcTopologyEnforcesBudgets) {
  RoundEngine eng = makeMpcEngine(2, 4, 1);
  std::vector<std::vector<Message>> out(2);
  out[0].push_back({1, {1, 2, 3, 4, 5}});
  EXPECT_THROW(scriptedRound(eng, std::move(out)), CapacityError);
}

TEST(RoundEngine, StepRunsMachineCentricRounds) {
  RoundEngine eng = makeMpcEngine(8, 8, 3);
  const runtime::KernelId k =
      runtime::ensureKernel<test_kernels::TokenKernel>(eng);
  eng.step(k, {0});
  for (int r = 0; r < 6; ++r) eng.step(k);
  const auto inboxes = eng.snapshotInboxes();
  EXPECT_EQ(inboxes[7].size(), 1u);
  EXPECT_EQ(inboxes[7][0].payload[0], 106u);
  EXPECT_EQ(eng.rounds(), 7u);
}

/// Fixed deterministic all-to-all workload; returns every inbox of every
/// round flattened, plus the ledger, for cross-thread-count comparison.
struct WorkloadTrace {
  std::vector<Word> flat;
  std::size_t rounds = 0;
  std::size_t words = 0;
  std::size_t maxRound = 0;

  friend bool operator==(const WorkloadTrace&, const WorkloadTrace&) = default;
};

WorkloadTrace runWorkload(std::size_t threads) {
  const std::size_t p = 16;
  RoundEngine eng = makeMpcEngine(p, 4 * p, threads);
  WorkloadTrace trace;
  std::uint64_t h = 42;
  std::vector<Outboxes> script(10, Outboxes(p));
  for (Outboxes& out : script)
    for (std::size_t src = 0; src < p; ++src)
      for (std::size_t k = 0; k < 3; ++k) {
        h = h * 6364136223846793005ULL + 1442695040888963407ULL;
        out[src].push_back({(src + 1 + (h >> 33) % (p - 1)) % p, {h, h ^ src}});
      }
  const runtime::KernelId k = registerScript(eng, std::move(script));
  for (Word round = 0; round < 10; ++round) {
    const auto inbox = scriptedRound(eng, k, round);
    for (const auto& deliveries : inbox)
      for (const Delivery& d : deliveries) {
        trace.flat.push_back(d.src);
        trace.flat.insert(trace.flat.end(), d.payload.begin(), d.payload.end());
      }
  }
  trace.rounds = eng.rounds();
  trace.words = eng.totalWordsSent();
  trace.maxRound = eng.maxRoundWords();
  return trace;
}

TEST(RoundEngine, ThreadCountDoesNotChangeAnything) {
  const WorkloadTrace one = runWorkload(1);
  for (std::size_t threads : {2u, 4u, 8u}) {
    const WorkloadTrace many = runWorkload(threads);
    EXPECT_EQ(one, many) << threads << " threads";
  }
  EXPECT_EQ(one.rounds, 10u);
  EXPECT_EQ(one.words, 10u * 16u * 3u * 2u);
}

}  // namespace
}  // namespace mpcspan
