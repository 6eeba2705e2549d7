// ClusterEngine — the one cluster-growth engine behind all of the paper's
// spanner constructions (Sections 3, 4, 5 and the Baswana–Sen baseline they
// generalize), on two substrates.
//
// Every algorithm is an *epoch schedule*: epoch i runs `iterations`
// rounds of cluster-vertex growth at sampling probability p_i on the current
// quotient graph (Section 5, Step B), optionally followed by a contraction
// (Step C). The engine executes the schedule with snapshot-parallel
// iteration semantics (all per-super-node decisions are computed against the
// iteration-start edge set, then applied atomically — the MPC execution
// order), maintains Lemma 5.6's invariant that every alive edge has both
// endpoints inside current clusters, and finishes with Phase 2. The
// certified stretch comes from the schedule alone (certifySchedule).
//
// Lemma 6.1 turns each step into find-minimum supersteps. One function runs
// them on either substrate (findMinimum, mpc/dist_iteration.hpp): on the
// host (a sort and two scans) or on the MPC simulator (real tuples through
// capacity-enforced rounds; mpc/dist_spanner.hpp). Superstep 1 sorts by
// (super-node, cluster); superstep 2 reads that order and needs no sort.
// The contraction's lightest-edge-per-super-node-pair dedup is superstep 1's
// lightestPerKey. Everything else — sampling, the Step B3/B4 decisions, the
// alive-flag sweeps, relabeling, phase 2 — is the same code on both, and
// both return the same spanner, edge for edge.
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
#include <vector>

#include "graph/graph.hpp"
#include "runtime/thread_pool.hpp"
#include "spanner/types.hpp"
#include "util/rng.hpp"

namespace mpcspan {

class MpcSimulator;

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

/// The cluster-growth engine. One growth iteration (grow: Steps B1-B6), one
/// contraction (contract: Step C) and one phase 2, written over the
/// super-node map, the clustering and per-edge alive flags. The substrate
/// is the only thing that varies: Options::sim null runs the find-minimum
/// supersteps and the contraction's pair dedup on the host; a simulator
/// runs them as real MPC rounds (mpc/dist_spanner.hpp). Both give the same
/// decisions, hence the same spanner, profile and ledger.
class ClusterEngine {
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
    /// The MPC substrate of the find-minimum supersteps and the pair dedup
    /// (not owned); null runs them on the host. The simulator also lends
    /// its lanes to the alive-flag sweeps.
    MpcSimulator* sim = nullptr;
  };

  /// Starts from singleton clusters: every vertex is its own super-node.
  ClusterEngine(const Graph& g, std::uint32_t k, Options opts);
  ClusterEngine(const ClusterEngine&) = delete;
  ClusterEngine& operator=(const ClusterEngine&) = delete;

  /// Runs phase 1 (the epoch schedule: per epoch the active super-node
  /// count, the sampling probability, the growth iterations with their
  /// hash-coin draw keys and ledger charges, and the contraction) followed
  /// by phase 2, the certificate (certifySchedule) and the spanner edges.
  /// Must be called exactly once.
  SpannerResult run(const std::vector<EpochSpec>& schedule);

 private:
  /// One growth iteration at probability p with the draw `drawKey`;
  /// returns the cluster count at its start.
  std::size_t grow(double p, std::uint64_t drawKey);
  /// Step C: the cluster roots, renumbered 0..n2-1 in root order, become
  /// the new singleton super-nodes; the lightest edge per super-node pair
  /// stays alive.
  void contract();
  /// Keeps the lightest alive edge per (vertex, neighbouring cluster).
  void phase2();
  /// The statistics of the iteration a sampling would run, without running
  /// it: on the host and without a pool, since a policy may call it from
  /// its own pool's lanes.
  IterPlanStats dryRun(const std::vector<char>& sampled) const;
  /// fn(begin, end) over chunks of the edge ids, on the substrate's lanes.
  void forEdgeChunks(const std::function<void(std::size_t, std::size_t)>& fn);

  const Graph& g_;
  Options opts_;
  HashCoinPolicy defaultPolicy_;
  runtime::ThreadPool* pool_;        // null on the host
  std::vector<VertexId> superOf_;    // vertex -> super-node (kNoVertex = exited)
  std::vector<VertexId> clusterOf_;  // super-node -> cluster root (kNoVertex = exited)
  std::vector<char> alive_;          // per input edge id
  std::vector<char> inSpanner_;      // per input edge id
  SpannerResult result_;
};

/// Builds the epoch schedule of the Section 5 trade-off algorithm.
std::vector<EpochSpec> tradeoffSchedule(std::size_t n, std::uint32_t k, std::uint32_t t);

}  // namespace mpcspan
