// The round-engine runtime: MPC budget enforcement, deterministic delivery,
// and — the core guarantee — bit-identical results for every thread count
// (rounds, traffic totals, and message contents).
#include "runtime/round_engine.hpp"

#include <gtest/gtest.h>

#include <stdlib.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>

#include "runtime/shard/sharded_engine.hpp"
#include "runtime/shard/tcp_transport.hpp"
#include "runtime/thread_pool.hpp"
#include "probe_kernels.hpp"

namespace mpcspan {
namespace {

using runtime::EngineConfig;
using runtime::MpcTopology;
using runtime::RoundEngine;
using runtime::RowView;
using runtime::ThreadPool;
using runtime::WordRows;
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

/// Sets an environment variable for one scope, then unsets it.
struct ScopedEnv {
  ScopedEnv(const char* name, const char* value) : name_(name) {
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() { ::unsetenv(name_); }
  const char* name_;
};

/// Runs fn and returns the std::invalid_argument message it throws ("" if
/// it throws nothing).
template <class Fn>
std::string invalidArgumentOf(Fn&& fn) {
  try {
    fn();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(EnvKnobs, GarbledCountsThrowNamingTheVariable) {
  // Only parsing runs here: a pool spawns its lanes at its first job, and
  // every engine built here is in-process or fails while parsing (a sharded
  // engine forks its workers in its constructor), so no thread or worker
  // starts, whatever the value.
  for (const char* bad : {"4x", "abc", "0", "100000", "-2", " 3"}) {
    {
      const ScopedEnv env("MPCSPAN_THREADS", bad);
      EXPECT_NE(invalidArgumentOf([] { ThreadPool::defaultThreads(); })
                    .find("MPCSPAN_THREADS"),
                std::string::npos)
          << bad;
      EXPECT_NE(invalidArgumentOf([] {
                  RoundEngine(EngineConfig{8, 0, 1}, MpcTopology(16));
                }).find("MPCSPAN_THREADS"),
                std::string::npos)
          << bad;
    }
    {
      const ScopedEnv env("MPCSPAN_SHARDS", bad);
      EXPECT_NE(invalidArgumentOf([] {
                  RoundEngine(EngineConfig{8, 1, 0}, MpcTopology(16));
                }).find("MPCSPAN_SHARDS"),
                std::string::npos)
          << bad;
    }
  }
  for (const char* name :
       {"MPCSPAN_TCP_TIMEOUT_MS", "MPCSPAN_TCP_PORT", "MPCSPAN_TCP_REMOTE"}) {
    const ScopedEnv env(name, "2x");
    std::string got =
        invalidArgumentOf([] { runtime::shard::defaultTcpTimeoutMs(); });
    got += invalidArgumentOf([] { runtime::shard::defaultTcpPort(); });
    got += invalidArgumentOf([] { runtime::shard::defaultTcpRemote(); });
    EXPECT_NE(got.find(name), std::string::npos) << name;
  }
  // One past the cap fails, the cap itself and an empty value do not.
  const std::string over = std::to_string(runtime::kMaxThreads + 1);
  const std::string cap = std::to_string(runtime::kMaxThreads);
  {
    const ScopedEnv env("MPCSPAN_THREADS", over.c_str());
    EXPECT_THROW(ThreadPool::defaultThreads(), std::invalid_argument);
  }
  {
    const ScopedEnv env("MPCSPAN_THREADS", cap.c_str());
    EXPECT_EQ(ThreadPool::defaultThreads(), runtime::kMaxThreads);
    const ScopedEnv shards("MPCSPAN_SHARDS", "3");
    EXPECT_EQ(runtime::shard::ShardedEngine::defaultShards(), 3u);
  }
  {
    const ScopedEnv env("MPCSPAN_THREADS", "");
    EXPECT_GE(ThreadPool::defaultThreads(), 1u);
  }
}

TEST(WordRows, RowsIterateInOrderOverOneWordBuffer) {
  WordRows rows;
  rows.add(3, {10, 11});
  rows.add(0, {});
  Word* filled = rows.append(5, 3);
  filled[0] = 20;
  filled[2] = 22;
  EXPECT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows.wordCount(), 5u);
  const std::vector<Word> words(rows.words().begin(), rows.words().end());
  EXPECT_EQ(words, (std::vector<Word>{10, 11, 20, 0, 22}));
  std::vector<std::size_t> peers, lens;
  for (const RowView row : rows) {
    peers.push_back(row.peer);
    lens.push_back(row.words.size());
  }
  EXPECT_EQ(peers, (std::vector<std::size_t>{3, 0, 5}));
  EXPECT_EQ(lens, (std::vector<std::size_t>{2, 0, 3}));
  // Equal rows need equal peers and lengths, not only equal words.
  WordRows same;
  same.add(3, {10, 11, 20, 0, 22});
  EXPECT_NE(rows, same);
}

TEST(RoundEngine, RejectsBadConfig) {
  EXPECT_THROW(makeMpcEngine(0, 8, 1), std::invalid_argument);
}

TEST(RoundEngine, DeliversInSourceOrder) {
  RoundEngine eng = makeMpcEngine(4, 16, 2);
  std::vector<WordRows> out(4);
  out[3].add(1, {30});
  out[0].add(1, {10, 11});
  out[0].add(1, {12});
  out[2].add(1, {20});
  const auto inbox = scriptedRound(eng, std::move(out));
  WordRows want;
  want.add(0, {10, 11});
  want.add(0, {12});
  want.add(2, {20});
  want.add(3, {30});
  EXPECT_EQ(inbox[1], want);
  EXPECT_EQ(eng.rounds(), 1u);
  EXPECT_EQ(eng.totalWordsSent(), 5u);
  EXPECT_EQ(eng.maxRoundWords(), 5u);
}

TEST(RoundEngine, MpcTopologyEnforcesBudgets) {
  RoundEngine eng = makeMpcEngine(2, 4, 1);
  std::vector<WordRows> out(2);
  out[0].add(1, {1, 2, 3, 4, 5});
  EXPECT_THROW(scriptedRound(eng, std::move(out)), CapacityError);
}

TEST(RoundEngine, StepRunsMachineCentricRounds) {
  RoundEngine eng = makeMpcEngine(8, 8, 3);
  const runtime::KernelId k =
      runtime::ensureKernel<test_kernels::TokenKernel>(eng);
  eng.step(k, {0});
  for (int r = 0; r < 6; ++r) eng.step(k);
  const auto inboxes = eng.snapshotInboxes();
  ASSERT_EQ(inboxes[7].size(), 1u);
  EXPECT_EQ(inboxes[7].words()[0], 106u);
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
        out[src].add((src + 1 + (h >> 33) % (p - 1)) % p, {h, h ^ src});
      }
  const runtime::KernelId k = registerScript(eng, std::move(script));
  for (Word round = 0; round < 10; ++round) {
    const auto inbox = scriptedRound(eng, k, round);
    for (const WordRows& rows : inbox)
      for (const RowView row : rows) {
        trace.flat.push_back(row.peer);
        trace.flat.insert(trace.flat.end(), row.words.begin(), row.words.end());
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
