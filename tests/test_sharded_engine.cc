// The sharded multi-process RoundEngine backend: cross-shard equivalence
// (1-shard, N-shard, 1-thread, N-thread runs of one workload are
// bit-identical — rounds, traffic ledger, delivery contents), the
// resident-worker protocol (fork once, pid stability,
// kernel-owned state, worker-lifecycle failure modes), the round barrier's
// failure modes, and MpcSimulator running sharded end-to-end.
#include "runtime/shard/sharded_engine.hpp"

#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <signal.h>

#include <chrono>
#include <cstdlib>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "graph/generators.hpp"
#include "mpc/dist_spanner.hpp"
#include "mpc/simulator.hpp"
#include "runtime/kernel.hpp"
#include "runtime/round_engine.hpp"
#include "spanner/baswana_sen.hpp"
#include "probe_kernels.hpp"

namespace mpcspan {
namespace {

using runtime::Delivery;
using runtime::EngineConfig;
using runtime::KernelId;
using runtime::Message;
using runtime::MpcTopology;
using runtime::RoundEngine;
using runtime::shard::ShardedEngine;
using runtime::shard::ShardError;
using test_kernels::Outboxes;
using test_kernels::registerScript;
using test_kernels::scriptedRound;

/// Flattened inboxes of every round plus the ledger, for cross-backend
/// comparison.
struct Trace {
  std::vector<Word> flat;
  std::size_t rounds = 0;
  std::size_t words = 0;
  std::size_t maxRound = 0;

  friend bool operator==(const Trace&, const Trace&) = default;
};

void recordRound(Trace& trace, const std::vector<std::vector<Delivery>>& inbox) {
  for (const auto& deliveries : inbox)
    for (const Delivery& d : deliveries) {
      trace.flat.push_back(d.src);
      trace.flat.insert(trace.flat.end(), d.payload.begin(), d.payload.end());
    }
}

void finishTrace(Trace& trace, RoundEngine& eng) {
  trace.rounds = eng.rounds();
  trace.words = eng.totalWordsSent();
  trace.maxRound = eng.maxRoundWords();
}

/// Deterministic all-to-all MPC workload with mixed payload sizes (1-word
/// fast path and heap spills).
Trace runMpcWorkload(std::size_t threads, std::size_t shards) {
  const std::size_t p = 16;
  RoundEngine eng(EngineConfig{p, threads, shards},
                  MpcTopology(6 * p));
  EXPECT_EQ(eng.numShards(), shards == 0 ? 1u : shards);
  Trace trace;
  std::uint64_t h = 42;
  std::vector<Outboxes> script(8, Outboxes(p));
  for (Outboxes& out : script)
    for (std::size_t src = 0; src < p; ++src)
      for (std::size_t k = 0; k < 3; ++k) {
        h = h * 6364136223846793005ULL + 1442695040888963407ULL;
        const std::size_t dst = (src + 1 + (h >> 33) % (p - 1)) % p;
        if (k == 0)
          out[src].push_back({dst, {h}});  // single word: inline payload
        else
          out[src].push_back({dst, {h, h ^ src, h >> 7}});
      }
  const KernelId k = registerScript(eng, std::move(script));
  for (Word round = 0; round < 8; ++round)
    recordRound(trace, scriptedRound(eng, k, round));
  finishTrace(trace, eng);
  return trace;
}

TEST(ShardedEngine, MpcWorkloadBitIdenticalAcrossShardsAndThreads) {
  const Trace base = runMpcWorkload(1, 1);
  EXPECT_EQ(base.rounds, 8u);
  for (std::size_t shards : {2u, 3u, 4u, 16u})
    EXPECT_EQ(base, runMpcWorkload(1, shards)) << shards << " shards";
  EXPECT_EQ(base, runMpcWorkload(4, 4)) << "4 threads x 4 shards";
  EXPECT_EQ(base, runMpcWorkload(3, 2)) << "3 threads x 2 shards";
}

TEST(ShardedEngine, StepRunsInWorkerProcesses) {
  // Ring token passing, compute phase executed inside the shard workers.
  RoundEngine eng(EngineConfig{8, 2, 4}, MpcTopology(8));
  ASSERT_EQ(eng.numShards(), 4u);
  const KernelId k = runtime::ensureKernel<test_kernels::TokenKernel>(eng);
  eng.step(k, {0});
  for (int r = 0; r < 6; ++r) eng.step(k);
  const auto inboxes = eng.snapshotInboxes();
  ASSERT_EQ(inboxes[7].size(), 1u);
  EXPECT_EQ(inboxes[7][0].payload[0], 106u);
  EXPECT_EQ(eng.rounds(), 7u);
}

TEST(ShardedEngine, CapacityViolationAbortsTheRoundLoudly) {
  RoundEngine eng(EngineConfig{4, 1, 2}, MpcTopology(2));
  Outboxes out(4);
  out[3].push_back({0, {1, 2, 3}});  // sender over budget, validated by shard 1
  Outboxes ok(4);
  ok[0].push_back({3, {7}});
  const KernelId k = registerScript(eng, {out, ok});
  EXPECT_THROW(eng.step(k, {0}), CapacityError);
  // The engine survives an aborted round: the barrier released every worker.
  const auto inbox = scriptedRound(eng, k, 1);
  EXPECT_EQ(inbox[3].size(), 1u);
  EXPECT_EQ(eng.rounds(), 1u);  // the aborted round was never charged
}

TEST(ShardedEngine, UnknownDestinationAbortsTheKernelRound) {
  // The rogue source is the last machine, so sharded it lives on the last
  // shard and only that worker's phase-A check can see the destination;
  // in-process the engine's validation rejects it before any delivery.
  // Either way the round aborts with std::invalid_argument, uncharged, and
  // the next good round commits.
  for (const std::size_t shards : {1u, 4u}) {
    RoundEngine eng(EngineConfig{8, 1, shards},
                    MpcTopology(8));
    ASSERT_EQ(eng.numShards(), shards);
    Outboxes bad(8);
    bad[7].push_back({1u << 20, {1}});
    Outboxes ok(8);
    ok[7].push_back({0, {5}});
    const KernelId k = registerScript(eng, {ok, bad, ok});
    eng.step(k, {0});
    EXPECT_THROW(eng.step(k, {1}), std::invalid_argument) << shards;
    EXPECT_EQ(eng.rounds(), 1u) << shards;
    EXPECT_EQ(eng.totalWordsSent(), 1u) << shards;
    const auto inbox = scriptedRound(eng, k, 2);
    ASSERT_EQ(inbox[0].size(), 1u) << shards;
    EXPECT_EQ(inbox[0][0].payload[0], 5u);
    EXPECT_EQ(eng.rounds(), 2u) << shards;
  }
}

TEST(ShardedEngine, ShardCountClampsToMachines) {
  RoundEngine eng(EngineConfig{3, 1, 64}, MpcTopology(8));
  EXPECT_EQ(eng.numShards(), 3u);
}

TEST(ShardedEngine, EnvVarSelectsDefaultShardCount) {
  ASSERT_EQ(::setenv("MPCSPAN_SHARDS", "2", 1), 0);
  {
    RoundEngine eng(EngineConfig{8, 1, 0}, MpcTopology(8));
    EXPECT_EQ(eng.numShards(), 2u);
  }
  ASSERT_EQ(::unsetenv("MPCSPAN_SHARDS"), 0);
  {
    RoundEngine eng(EngineConfig{8, 1, 0}, MpcTopology(8));
    EXPECT_EQ(eng.numShards(), 1u);
  }
}

TEST(ShardedEngine, PartitionIsBalancedAndContiguous) {
  MpcTopology topo(8);
  ShardedEngine se(10, 4, 1, topo);
  EXPECT_EQ(se.shardBegin(0), 0u);
  EXPECT_EQ(se.shardEnd(0), 3u);
  EXPECT_EQ(se.shardEnd(1), 6u);
  EXPECT_EQ(se.shardEnd(2), 8u);
  EXPECT_EQ(se.shardEnd(3), 10u);
  EXPECT_THROW(ShardedEngine(10, 1, 1, topo), std::invalid_argument);
  EXPECT_THROW(ShardedEngine(10, 11, 1, topo), std::invalid_argument);
}

// --- Resident workers: fork-once lifetime, kernel-owned state, failure
// modes. ---

/// Counter kernel: per-machine state that must live across rounds wherever
/// the machine lives. Every round, machine m adds its inbox sum plus one to
/// its counter and sends the counter to (m + 1) % n.
class CounterKernel final : public runtime::StepKernel {
 public:
  static std::string kernelName() { return "test.counter"; }

  std::vector<Message> step(const runtime::KernelCtx& ctx) override {
    ensureSized(ctx);
    Word sum = 1;
    for (const Delivery& d : ctx.inbox) sum += d.payload.front();
    counters_[ctx.machine] += sum;
    if (!ctx.args.empty() && ctx.args[0] == 1 && ctx.machine == 2)
      throw std::runtime_error("counter kernel boom");
    return {{(ctx.machine + 1) % ctx.numMachines, {counters_[ctx.machine]}}};
  }

  std::vector<Word> fetch(const runtime::KernelCtx& ctx) override {
    ensureSized(ctx);
    return {counters_[ctx.machine]};
  }

 private:
  void ensureSized(const runtime::KernelCtx& ctx) {
    std::call_once(sized_, [&] { counters_.resize(ctx.numMachines); });
  }

  std::once_flag sized_;
  std::vector<Word> counters_;
};

TEST(ResidentWorkers, ForkOncePidsStableAcrossRounds) {
  RoundEngine eng(EngineConfig{8, 1, 4},
                  MpcTopology(16));
  const auto* backend = eng.shardBackend();
  ASSERT_NE(backend, nullptr);
  EXPECT_FALSE(backend->started());  // lazy: nothing forked yet

  Outboxes out(8);
  for (std::size_t m = 0; m < 8; ++m) out[m].push_back({(m + 3) % 8, {m}});
  const KernelId k = registerScript(eng, {out});
  auto oneRound = [&] { eng.step(k, {0}); };
  oneRound();
  const std::vector<pid_t> pids = backend->workerPids();
  ASSERT_EQ(pids.size(), 4u);
  for (int r = 0; r < 5; ++r) oneRound();
  EXPECT_EQ(backend->workerPids(), pids) << "workers must fork exactly once";
  EXPECT_EQ(eng.rounds(), 6u);
}

TEST(ResidentWorkers, KernelStatePersistsAndMatchesInProcessBitForBit) {
  // Same kernel workload on the in-process engine and on 2/4-shard resident
  // engines: after >= 3 rounds the kernel-owned counters and the resident
  // inboxes must agree bit for bit.
  auto run = [](std::size_t threads, std::size_t shards) {
    const std::size_t n = 8;
    RoundEngine eng(EngineConfig{n, threads, shards}, MpcTopology(16));
    const KernelId k = runtime::ensureKernel<CounterKernel>(eng);
    for (int r = 0; r < 4; ++r) eng.step(k);
    struct Result {
      std::vector<std::vector<Word>> counters;
      std::vector<Word> flatInboxes;
      std::size_t rounds, words, maxRound;

      bool operator==(const Result&) const = default;
    } res;
    res.counters = eng.fetchKernel(k);
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
  };
  const auto base = run(1, 1);
  EXPECT_EQ(base.rounds, 4u);
  EXPECT_EQ(base, run(1, 2)) << "2 shards";
  EXPECT_EQ(base, run(2, 4)) << "4 shards";
}

TEST(ResidentWorkers, KernelThrowMidRoundAbortsRoundForAllShards) {
  RoundEngine eng(EngineConfig{8, 1, 4},
                  MpcTopology(16));
  const KernelId k = runtime::ensureKernel<CounterKernel>(eng);
  eng.step(k);
  EXPECT_EQ(eng.rounds(), 1u);
  const auto inboxesBefore = eng.snapshotInboxes();
  // Machine 2 (shard 1) throws: the round aborts for every shard — ledger
  // untouched, no delivery of the aborted round lands in any resident
  // inbox — and the engine (and its workers) stay usable. Kernel state
  // mutated before the throw is unspecified per machine (exactly like
  // in-process captured state: whether a machine's step ran before the
  // abort depends on the schedule), which is why the bit-identicality
  // guarantee only covers committed rounds.
  EXPECT_THROW(eng.step(k, {1}), std::runtime_error);
  EXPECT_EQ(eng.rounds(), 1u);
  const auto inboxesAfter = eng.snapshotInboxes();
  ASSERT_EQ(inboxesBefore.size(), inboxesAfter.size());
  for (std::size_t m = 0; m < inboxesBefore.size(); ++m) {
    ASSERT_EQ(inboxesBefore[m].size(), inboxesAfter[m].size());
    for (std::size_t i = 0; i < inboxesBefore[m].size(); ++i) {
      EXPECT_EQ(inboxesBefore[m][i].src, inboxesAfter[m][i].src);
      EXPECT_EQ(inboxesBefore[m][i].payload, inboxesAfter[m][i].payload);
    }
  }
  eng.step(k);
  EXPECT_EQ(eng.rounds(), 2u);
}

/// With any arg every machine floods machine 0 past its receive budget.
class Flooder final : public runtime::StepKernel {
 public:
  static std::string kernelName() { return "test.flooder"; }

  std::vector<Message> step(const runtime::KernelCtx& ctx) override {
    if (!ctx.args.empty())
      return {{0, {1, 2, 3, 4, 5}}};  // 8 machines x 5 words > cap 16
    return {{0, {1}}};
  }
};

TEST(ResidentWorkers, CapacityViolationInKernelRoundKeepsType) {
  // A kernel round that violates the topology must abort with the same
  // loud CapacityError as the in-process engine, workers still alive.
  RoundEngine eng(EngineConfig{8, 1, 4},
                  MpcTopology(16));
  const KernelId k = runtime::ensureKernel<Flooder>(eng);
  EXPECT_THROW(eng.step(k, {1}), CapacityError);
  EXPECT_EQ(eng.rounds(), 0u);
  eng.step(k);  // workers survived the abort
  EXPECT_EQ(eng.rounds(), 1u);
}

TEST(ResidentWorkers, PostForkRegistrationResolvesViaGlobalRegistry) {
  // The workers fork at the first operation; a kernel registered afterwards
  // reaches them by name through the process-global registry exactly as one
  // registered before (that is how distSort's kernels appear mid-run, e.g.
  // in the tradeoff contraction).
  runtime::registerGlobalKernel("test.counter.global", [] {
    return std::make_unique<CounterKernel>();
  });
  RoundEngine eng(EngineConfig{8, 1, 4},
                  MpcTopology(16));
  const KernelId token = runtime::ensureKernel<test_kernels::TokenKernel>(eng);
  eng.fetchKernel(token);  // forks the workers without a round
  ASSERT_TRUE(eng.shardBackend()->started());
  const KernelId k = eng.registerKernel("test.counter.global");
  for (int r = 0; r < 3; ++r) eng.step(k);
  RoundEngine ref(EngineConfig{8, 1, 1}, MpcTopology(16));
  const KernelId rk = ref.registerKernel("test.counter.global");
  for (int r = 0; r < 3; ++r) ref.step(rk);
  EXPECT_EQ(eng.fetchKernel(k), ref.fetchKernel(rk));
  // A name missing from the global registry is rejected at registration,
  // after the fork as before it.
  EXPECT_THROW(eng.registerKernel("test.unresolvable"), std::invalid_argument);
}

TEST(ResidentWorkers, WorkerDeathBetweenRoundsSurfacesAsShardError) {
  auto eng = std::make_unique<RoundEngine>(EngineConfig{8, 1, 4},
                                           MpcTopology(16));
  Outboxes out(8);
  out[1].push_back({6, {9}});
  const KernelId k = registerScript(*eng, {out});
  auto oneRound = [&] { eng->step(k, {0}); };
  oneRound();
  const std::vector<pid_t> pids = eng->shardBackend()->workerPids();
  ASSERT_EQ(pids.size(), 4u);
  // Kill a worker while the engine is idle between rounds; the next round
  // must throw ShardError (not hang, not return garbage), and the engine
  // stays failed afterwards.
  ASSERT_EQ(::kill(pids[2], SIGKILL), 0);
  EXPECT_THROW(oneRound(), ShardError);
  EXPECT_THROW(oneRound(), ShardError);
  // Destruction must leave no zombies: every worker pid is fully reaped, so
  // a later waitpid knows nothing about them.
  eng.reset();
  for (const pid_t pid : pids) {
    int st = 0;
    EXPECT_EQ(::waitpid(pid, &st, WNOHANG), -1);
    EXPECT_EQ(errno, ECHILD);
  }
}

TEST(ResidentWorkers, WorkerDeathFailsPromptlyWithALaterEngineAlive) {
  // Engine B forks its workers after engine A's are up, so without care B's
  // workers would hold copies of A's control sockets. A fetch (unlike a
  // round, which drags every worker into the failed exchange) leaves A's
  // surviving worker idle at its command read; once one of A's workers is
  // dead, that survivor would then never see EOF, and A's failing fetch
  // would block in waitpid until B died. The fetch runs on its own thread
  // so a regression fails here instead of hanging the suite.
  auto makeEngine = [] {
    return std::make_unique<RoundEngine>(EngineConfig{8, 1, 2},
                                         MpcTopology(16));
  };
  auto a = makeEngine();
  auto b = makeEngine();
  const KernelId ka = runtime::ensureKernel<CounterKernel>(*a);
  const KernelId kb = runtime::ensureKernel<CounterKernel>(*b);
  a->step(ka);
  b->step(kb);
  const std::vector<pid_t> aPids = a->shardBackend()->workerPids();
  ASSERT_EQ(aPids.size(), 2u);
  ASSERT_EQ(::kill(aPids[1], SIGKILL), 0);

  std::promise<bool> threw;
  std::future<bool> done = threw.get_future();
  std::thread op([&] {
    try {
      (void)a->fetchKernel(ka);
      threw.set_value(false);
    } catch (const ShardError&) {
      threw.set_value(true);
    } catch (...) {
      threw.set_value(false);
    }
  });
  const bool prompt =
      done.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  EXPECT_TRUE(prompt) << "engine A's failing fetch blocked while engine B lived";
  if (!prompt) b.reset();  // B's workers exit, which unblocks A
  op.join();
  EXPECT_TRUE(done.get()) << "expected ShardError from engine A";
  if (b) {
    b->step(kb);  // B is untouched by A's failure
    EXPECT_EQ(b->rounds(), 2u);
  }
}

TEST(ResidentWorkers, DestructorReapsIdleWorkers) {
  std::vector<pid_t> pids;
  {
    RoundEngine eng(EngineConfig{6, 1, 3},
                    MpcTopology(16));
    Outboxes out(6);
    out[0].push_back({5, {1}});
    scriptedRound(eng, std::move(out));
    pids = eng.shardBackend()->workerPids();
    ASSERT_EQ(pids.size(), 3u);
  }
  for (const pid_t pid : pids) {
    int st = 0;
    EXPECT_EQ(::waitpid(pid, &st, WNOHANG), -1) << "worker leaked: " << pid;
    EXPECT_EQ(errno, ECHILD);
  }
}

// --- Facades running sharded, end to end. ---

TEST(ShardedFacades, DistributedBaswanaSenMatchesHostAcrossShards) {
  Rng rng(1234);
  const Graph g = gnmRandom(150, 600, rng, {WeightModel::kUniform, 20.0}, true);
  const SpannerResult host = buildBaswanaSen(g, {.k = 3, .seed = 7});

  const MpcConfig cfg = MpcConfig::forInput(8 * g.numEdges(), 0.6, 3.0);
  MpcSimulator sharded(cfg, /*threads=*/2, /*shards=*/3);
  ASSERT_EQ(sharded.numShards(), 3u);
  const DistSpannerResult dist = buildDistributedBaswanaSen(sharded, g, 3, 7);
  EXPECT_EQ(dist.edges, host.edges);

  MpcSimulator inProcess(cfg, /*threads=*/1, /*shards=*/1);
  const DistSpannerResult ref = buildDistributedBaswanaSen(inProcess, g, 3, 7);
  EXPECT_EQ(dist.edges, ref.edges);
  EXPECT_EQ(dist.simulatorRounds, ref.simulatorRounds);
  EXPECT_EQ(dist.wordsMoved, ref.wordsMoved);
}

}  // namespace
}  // namespace mpcspan
