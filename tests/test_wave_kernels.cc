// Resident-path equivalence of the three compute waves ported to registered
// kernels (growth find-min supersteps, clique label round, PRAM LeaderForest
// CRCW writes): for each wave, the same multi-iteration workload must be
// bit-identical — results, rounds, traffic ledger, and (where observable)
// kernel-owned state — across 1/N shards × 1/N threads, with the resident
// workers forking exactly once across all iterations. Extends the
// test_sharded_engine / test_mpc_primitives pattern to the three waves;
// test_golden freezes the same workloads' values.
#include <gtest/gtest.h>

#include <sys/types.h>

#include <memory>
#include <numeric>

#include "cclique/iteration_cc.hpp"
#include "graph/generators.hpp"
#include "mpc/dist_iteration.hpp"
#include "pram/pram.hpp"
#include "runtime/round_engine.hpp"
#include "runtime/shard/sharded_engine.hpp"
#include "spanner/engine.hpp"

namespace mpcspan {
namespace {

using runtime::EngineConfig;
using runtime::PramTopology;
using runtime::RoundEngine;

std::vector<VertexId> identity(std::size_t n) {
  std::vector<VertexId> v(n);
  std::iota(v.begin(), v.end(), 0);
  return v;
}

/// Everything observable from one wave run, for cross-backend comparison.
struct WaveTrace {
  std::vector<GroupMinEdge> groupMins;
  std::vector<ClosestSampled> joins;
  std::size_t roundsUsed = 0;
  std::size_t rounds = 0;
  std::size_t words = 0;
  std::size_t maxRound = 0;

  friend bool operator==(const WaveTrace&, const WaveTrace&) = default;
};

/// Three growth iterations with evolving cluster state on one simulator —
/// the kernel instances (sort splitters, segmented-min reductions, the
/// filter/scatter chain) must carry their per-machine state across
/// iterations identically on every backend.
WaveTrace runGrowthWave(std::size_t threads, std::size_t shards,
                        std::vector<pid_t>* pidsOut = nullptr) {
  Rng rng(99);
  const Graph g = gnmRandom(300, 1500, rng, {WeightModel::kUniform, 15.0}, true);
  const std::size_t n = g.numVertices();
  const std::vector<VertexId> superOf = identity(n);
  std::vector<VertexId> clusterOf = identity(n);
  std::vector<char> alive(g.numEdges(), 1);

  MpcSimulator sim(MpcConfig::forInput(4 * g.numEdges(), 0.6, 3.0), threads,
                   shards);
  WaveTrace trace;
  for (int iter = 0; iter < 3; ++iter) {
    const std::vector<char> sampled = HashCoinPolicy::draw(
        std::vector<char>(n, 1), 0.3, /*seed=*/99, /*drawKey=*/iter + 1);
    const DistIterationResult res =
        distIterationKernel(sim, g, superOf, clusterOf, sampled, &alive);
    trace.groupMins.insert(trace.groupMins.end(), res.groupMins.begin(),
                           res.groupMins.end());
    trace.joins.insert(trace.joins.end(), res.joins.begin(), res.joins.end());
    trace.roundsUsed += res.roundsUsed;
    // Evolve the state deterministically: joiners move, a slice of the
    // edges dies — the next iteration sees genuinely different inputs.
    for (const ClosestSampled& cs : res.joins) clusterOf[cs.v] = cs.cluster;
    for (const GroupMinEdge& gm : res.groupMins)
      if ((gm.id & 3u) == 0) alive[gm.id] = 0;
    if (pidsOut && sim.engine().shardBackend()) {
      const std::vector<pid_t> pids = sim.engine().shardBackend()->workerPids();
      if (pidsOut->empty())
        *pidsOut = pids;
      else
        EXPECT_EQ(*pidsOut, pids) << "workers must fork exactly once";
    }
  }
  trace.rounds = sim.rounds();
  trace.words = sim.totalWordsSent();
  trace.maxRound = sim.maxRoundWords();
  return trace;
}

TEST(WaveKernels, GrowthBitIdenticalAcrossShardsAndThreads) {
  const WaveTrace base = runGrowthWave(1, 1);
  ASSERT_FALSE(base.groupMins.empty());
  ASSERT_GT(base.rounds, 0u);
  std::vector<pid_t> pids;
  EXPECT_EQ(base, runGrowthWave(1, 2, &pids)) << "2 shards";
  EXPECT_EQ(pids.size(), 2u);
  EXPECT_EQ(base, runGrowthWave(2, 3)) << "3 shards x 2 threads";
}

/// Two clique iterations (different sampled draws) on one clique — the
/// label round, candidate derivation, and Lenzen accounting must match on
/// every backend, with the kernel's candidate state cleanly rebuilt per
/// iteration.
WaveTrace runCliqueWave(std::size_t threads, std::size_t shards,
                        std::vector<pid_t>* pidsOut = nullptr) {
  Rng rng(7);
  const Graph g = gnmRandom(60, 260, rng, {WeightModel::kUniform, 9.0}, true);
  const std::size_t n = g.numVertices();
  std::vector<char> alive(g.numEdges(), 1);
  for (EdgeId id = 0; id < g.numEdges(); id += 5) alive[id] = 0;

  CongestedClique cc(n, threads, shards);
  WaveTrace trace;
  for (int iter = 0; iter < 3; ++iter) {
    const std::vector<char> sampled = HashCoinPolicy::draw(
        std::vector<char>(n, 1), 0.4, /*seed=*/7, /*drawKey=*/iter + 1);
    const DistIterationResult res = cliqueIterationKernel(
        cc, g, identity(n), identity(n), sampled, &alive);
    trace.groupMins.insert(trace.groupMins.end(), res.groupMins.begin(),
                           res.groupMins.end());
    trace.joins.insert(trace.joins.end(), res.joins.begin(), res.joins.end());
    trace.roundsUsed += res.roundsUsed;
    // The per-iteration decisions must equal the host reference too.
    const DistIterationResult ref =
        referenceIterationKernel(g, identity(n), identity(n), sampled, &alive);
    EXPECT_EQ(res.groupMins, ref.groupMins);
    EXPECT_EQ(res.joins, ref.joins);
    if (pidsOut && cc.engine().shardBackend()) {
      const std::vector<pid_t> pids = cc.engine().shardBackend()->workerPids();
      if (pidsOut->empty())
        *pidsOut = pids;
      else
        EXPECT_EQ(*pidsOut, pids) << "workers must fork exactly once";
    }
  }
  trace.rounds = cc.rounds();
  trace.words = cc.totalWords();
  return trace;
}

TEST(WaveKernels, CliqueLabelRoundBitIdenticalAcrossShards) {
  const WaveTrace base = runCliqueWave(1, 1);
  ASSERT_GT(base.rounds, 0u);
  ASSERT_GT(base.words, 0u);
  std::vector<pid_t> pids;
  EXPECT_EQ(base, runCliqueWave(1, 3, &pids)) << "3 shards";
  EXPECT_EQ(pids.size(), 3u);
  EXPECT_EQ(base, runCliqueWave(2, 4)) << "4 shards x 2 threads";
}

/// A merge schedule on an engine-backed LeaderForest: host mirror, kernel
/// cells, and the ledger must agree on every backend.
struct ForestTrace {
  std::vector<std::uint32_t> leaders;
  std::vector<std::vector<Word>> cells;
  std::size_t rounds = 0;
  std::size_t words = 0;

  friend bool operator==(const ForestTrace&, const ForestTrace&) = default;
};

ForestTrace runForestWave(std::size_t threads, std::size_t shards,
                          std::vector<pid_t>* pidsOut = nullptr) {
  const std::size_t n = 32;
  RoundEngine eng(EngineConfig{n, threads, shards},
                  std::make_unique<PramTopology>());
  LeaderForest lf(n);
  lf.attachEngine(&eng);
  std::uint64_t h = 11;
  for (int i = 0; i < 60; ++i) {
    h = h * 6364136223846793005ULL + 1442695040888963407ULL;
    const auto a = static_cast<std::uint32_t>((h >> 33) % n);
    h = h * 6364136223846793005ULL + 1442695040888963407ULL;
    const auto b = static_cast<std::uint32_t>((h >> 33) % n);
    lf.merge(a, b);
    if (pidsOut && eng.shardBackend()) {
      const std::vector<pid_t> pids = eng.shardBackend()->workerPids();
      if (pidsOut->empty())
        *pidsOut = pids;
      else
        EXPECT_EQ(*pidsOut, pids) << "workers must fork exactly once";
    }
  }
  ForestTrace trace;
  for (std::uint32_t v = 0; v < n; ++v) trace.leaders.push_back(lf.leader(v));
  trace.cells = eng.fetchKernel(lf.kernelId());
  trace.rounds = eng.rounds();
  trace.words = eng.totalWordsSent();
  EXPECT_EQ(trace.rounds, static_cast<std::size_t>(lf.depthCharged()));
  EXPECT_EQ(trace.words, static_cast<std::size_t>(lf.workCharged()));
  // The kernel-owned cells are the simulation's truth; they must mirror the
  // host bookkeeping exactly.
  for (std::uint32_t v = 0; v < n; ++v)
    EXPECT_EQ(trace.cells[v], std::vector<Word>{trace.leaders[v]}) << "cell " << v;
  return trace;
}

TEST(WaveKernels, LeaderForestWritesBitIdenticalAcrossShards) {
  const ForestTrace base = runForestWave(1, 1);
  ASSERT_GT(base.rounds, 0u);
  std::vector<pid_t> pids;
  EXPECT_EQ(base, runForestWave(1, 4, &pids)) << "4 shards";
  EXPECT_EQ(pids.size(), 4u);
  EXPECT_EQ(base, runForestWave(2, 2)) << "2 shards x 2 threads";
}

}  // namespace
}  // namespace mpcspan
