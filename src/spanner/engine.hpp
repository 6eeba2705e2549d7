// ClusterEngine — the shared cluster-growth machinery behind all of the
// paper's spanner constructions (Sections 3, 4, 5 and the Baswana–Sen
// baseline they generalize).
//
// Every algorithm is an *epoch schedule*: epoch i runs `iterations`
// rounds of cluster-vertex growth at sampling probability p_i on the current
// quotient graph (Section 5, Step B), optionally followed by a contraction
// (Step C). The engine executes the schedule with snapshot-parallel
// iteration semantics (all per-super-node decisions are computed against the
// iteration-start edge set, then applied atomically — the MPC execution
// order), maintains Lemma 5.6's invariant that every alive edge has both
// endpoints inside current clusters, and finishes with Phase 2. The
// schedule walk and the certified stretch (certifySchedule, from the
// schedule alone) live in ScheduleEngine, which the distributed driver in
// mpc/dist_spanner.hpp shares.
//
// Instantiations:
//   Baswana–Sen:      1 epoch, k-1 iterations, p = n^{-1/k}, no contraction.
//   Section 3 (√k):   2 epochs of ~√k iterations; second probability drawn
//                     from the contracted graph size.
//   Section 4 (t=1):  log2(k) epochs, 1 iteration each, p_i = n^{-2^{i-1}/k}.
//   Section 5:        l = ceil(log k/log(t+1)) epochs, t iterations each,
//                     p_i = n^{-(t+1)^{i-1}/k}.
//
// Sampling is deterministic per (seed, epoch, iteration, cluster root): each
// root flips an independent hash-coin. This matches the distributed model
// (each cluster center flips locally, no coordination) and makes every run
// reproducible. A SamplingPolicy hook lets Theorem 8.1's Congested Clique
// parallel-repetition scheme replace the single draw with O(log n) draws and
// a dry-run selection.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "graph/graph.hpp"
#include "spanner/types.hpp"
#include "util/rng.hpp"

namespace mpcspan {

/// One epoch of the schedule.
struct EpochSpec {
  std::uint32_t iterations = 1;
  /// Sampling probability for all iterations of this epoch, as a function of
  /// the number of active super-nodes at epoch start (Section 3's second
  /// phase re-derives it from the contracted size; the others ignore the
  /// argument).
  std::function<double(std::size_t activeSupernodes)> prob;
  bool contractAfter = true;
};

/// What a schedule certifies. The weighted-stretch-radius recurrence of
/// Lemma 5.8 depends on the schedule alone, so it is replayed here rather
/// than tracked during a run; this is the one place the stretch rule lives.
struct ScheduleBound {
  double finalRadius = 0;   // radius of the final clustering
  double stretchBound = 1;  // see SpannerResult::stretchBound
};
ScheduleBound certifySchedule(const std::vector<EpochSpec>& schedule);

/// Outcome statistics of one iteration plan; consumed by sampling policies.
struct IterPlanStats {
  std::size_t sampledClusters = 0;
  std::size_t edgesAdded = 0;
  std::size_t totalClusters = 0;
  std::size_t activeSupernodes = 0;
};

/// Chooses which cluster roots are sampled in one iteration.
/// `rootActive[r]` marks current roots; the policy must return a vector of
/// the same size with sampled[r] => rootActive[r]. `dryRun` evaluates the
/// iteration plan a choice would produce, without committing it.
class SamplingPolicy {
 public:
  virtual ~SamplingPolicy() = default;
  virtual std::vector<char> choose(
      const std::vector<char>& rootActive, double p, std::uint64_t drawKey,
      const std::function<IterPlanStats(const std::vector<char>&)>& dryRun,
      SpannerResult::RepetitionStats& stats) = 0;
};

/// Default: one deterministic hash-coin draw per root (standard MPC run).
class HashCoinPolicy final : public SamplingPolicy {
 public:
  explicit HashCoinPolicy(std::uint64_t seed) : seed_(seed) {}
  std::vector<char> choose(
      const std::vector<char>& rootActive, double p, std::uint64_t drawKey,
      const std::function<IterPlanStats(const std::vector<char>&)>& dryRun,
      SpannerResult::RepetitionStats& stats) override;

  /// The single-draw primitive shared with the repetition policy.
  static std::vector<char> draw(const std::vector<char>& rootActive, double p,
                                std::uint64_t seed, std::uint64_t drawKey);

 private:
  std::uint64_t seed_;
};

/// The schedule walk every cluster-growth engine shares: per epoch, the
/// active super-node count, the sampling probability, the growth
/// iterations with their hash-coin draw keys and ledger charges, and the
/// contraction; then phase 2, the certificate (certifySchedule) and the
/// spanner edges. One seed thus samples the same cluster roots on the host
/// (ClusterEngine) and on the MPC simulator (mpc/dist_spanner.cc), which
/// supply the steps.
class ScheduleEngine {
 public:
  virtual ~ScheduleEngine() = default;
  ScheduleEngine(const ScheduleEngine&) = delete;
  ScheduleEngine& operator=(const ScheduleEngine&) = delete;

  /// Runs phase 1 (the epoch schedule) followed by phase 2, and returns the
  /// result. Must be called exactly once.
  SpannerResult run(const std::vector<EpochSpec>& schedule);

 protected:
  /// Starts from singleton clusters: every vertex is its own super-node.
  ScheduleEngine(const Graph& g, std::uint32_t k);

  /// One growth iteration (Steps B1-B6) at probability p with the draw
  /// `drawKey`; returns the cluster count at its start.
  virtual std::size_t grow(double p, std::uint64_t drawKey) = 0;
  /// Step C: contracts the clustering (see contractClusters).
  virtual void contract() = 0;
  virtual void phase2() = 0;

  /// Marks the cluster roots of the current clustering.
  std::vector<char> activeRoots() const;
  /// Step C's relabeling: the cluster roots, renumbered 0..n2-1 in root
  /// order, become the new singleton super-nodes. Returns each old
  /// super-node's new id (kNoVertex for exited ones).
  std::vector<VertexId> contractClusters();

  const Graph& g_;
  std::size_t nSuper_ = 0;
  std::vector<VertexId> clusterOf_;  // super-node -> cluster root (kNoVertex = exited)
  std::vector<char> inSpanner_;      // per input edge id
  SpannerResult result_;
};

class ClusterEngine final : public ScheduleEngine {
 public:
  struct Options {
    std::uint64_t seed = 1;
    /// Optional override of the sampling mechanism (Theorem 8.1).
    SamplingPolicy* policy = nullptr;
    /// Ablation hook: Step B3's rule that a joining super-node also adds
    /// the minimum edge to every neighbouring cluster *strictly lighter*
    /// than its join edge. This is what makes the construction correct on
    /// weighted graphs; disabling it (bench_a1_ablation) voids the
    /// certified stretch bound for weighted inputs.
    bool strictLighterRule = true;
  };

  ClusterEngine(const Graph& g, std::uint32_t k, Options opts);

 private:
  struct AliveEdge {
    VertexId su;  // current super-node containing g.edge(id).u
    VertexId sv;  // current super-node containing g.edge(id).v
    EdgeId id;
  };

  struct Plan {
    std::vector<std::pair<VertexId, VertexId>> joins;  // (super-node, new root)
    std::vector<VertexId> exits;
    std::vector<EdgeId> spannerAdds;
    std::vector<std::uint32_t> deadAliveIdx;  // indices into alive_
    IterPlanStats stats;
  };

  std::size_t grow(double p, std::uint64_t drawKey) override;
  void contract() override;
  void phase2() override;
  Plan computePlan(const std::vector<char>& sampled) const;
  void applyPlan(const Plan& plan);

  Options opts_;
  HashCoinPolicy defaultPolicy_;
  std::vector<AliveEdge> alive_;
};

/// Builds the epoch schedule of the Section 5 trade-off algorithm.
std::vector<EpochSpec> tradeoffSchedule(std::size_t n, std::uint32_t k, std::uint32_t t);

}  // namespace mpcspan
