// Resident-path equivalence of the growth find-min supersteps ported to
// registered kernels: the same multi-iteration workload must be
// bit-identical — results, rounds, and traffic ledger — across 1/N shards
// × 1/N threads, with the resident workers forking exactly once across all
// iterations. Extends the test_sharded_engine / test_mpc_primitives pattern
// to the growth wave; test_golden freezes the same workload's values.
#include <gtest/gtest.h>

#include <sys/types.h>

#include <numeric>

#include "graph/generators.hpp"
#include "mpc/dist_iteration.hpp"
#include "runtime/round_engine.hpp"
#include "runtime/shard/sharded_engine.hpp"
#include "spanner/engine.hpp"

namespace mpcspan {
namespace {

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
/// the kernel instances (sort splitters, segmented-min reductions) must
/// carry their per-machine state across iterations identically on every
/// backend.
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

}  // namespace
}  // namespace mpcspan
