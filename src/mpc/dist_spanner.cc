#include "mpc/dist_spanner.hpp"

#include <algorithm>
#include <numeric>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "mpc/dist_iteration.hpp"
#include "mpc/primitives.hpp"
#include "spanner/baswana_sen.hpp"
#include "spanner/engine.hpp"
#include "spanner/tradeoff.hpp"

namespace mpcspan {

namespace {

std::uint64_t pairKey(VertexId v, VertexId cluster) {
  return (static_cast<std::uint64_t>(v) << 32) | cluster;
}

/// Super-edge tuple of the contraction dedup, with its stateless orderings
/// (they cross into the shard workers by type — see mpc/primitives.hpp).
struct PairTuple {
  std::uint64_t key;
  double w;
  std::uint32_t id;
};
struct PairBetter {
  bool operator()(const PairTuple& a, const PairTuple& b) const {
    return a.w < b.w || (a.w == b.w && a.id < b.id);
  }
};
struct PairByKey {
  // Primary order is packed word 0 (PairTuple::key), ascending — lets the
  // sort kernels run flat key passes (detail::PackedKeyWord).
  static constexpr std::size_t kPackedKeyWord = 0;
  bool operator()(const PairTuple& a, const PairTuple& b) const {
    if (a.key != b.key) return a.key < b.key;
    return PairBetter{}(a, b);
  }
};
struct PairKey {
  std::uint64_t operator()(const PairTuple& t) const { return t.key; }
};

/// The distributed cluster-growth engine: the ClusterEngine's steps with
/// every find-minimum and contraction dedup on the MPC simulator.
class DistClusterEngine final : public ScheduleEngine {
 public:
  DistClusterEngine(MpcSimulator& sim, const Graph& g, std::uint32_t k,
                    std::uint64_t seed)
      : ScheduleEngine(g, k),
        sim_(sim),
        seed_(seed),
        superOf_(clusterOf_),
        alive_(g.numEdges(), 1) {}

 private:
  std::size_t grow(double p, std::uint64_t drawKey) override;
  void contract() override;
  void phase2() override;

  MpcSimulator& sim_;
  std::uint64_t seed_;
  std::vector<VertexId> superOf_;  // original vertex -> super-node
  std::vector<char> alive_;        // per edge id
};

/// One cluster-growth iteration (Steps B1-B6), with the find-minimum work
/// done by distIterationKernel on the simulator; the same decisions as
/// ClusterEngine's iteration plan. Returns the cluster count at its start.
std::size_t DistClusterEngine::grow(double p, std::uint64_t drawKey) {
  const std::vector<char> rootActive = activeRoots();
  const std::vector<char> sampled =
      HashCoinPolicy::draw(rootActive, p, seed_, drawKey);

  const DistIterationResult res =
      distIterationKernel(sim_, g_, superOf_, clusterOf_, sampled, &alive_);

  std::unordered_map<VertexId, ClosestSampled> joins;
  joins.reserve(res.joins.size());
  for (const ClosestSampled& cs : res.joins) joins.emplace(cs.v, cs);

  std::unordered_set<std::uint64_t> discard;
  discard.reserve(res.groupMins.size());
  for (const GroupMinEdge& gm : res.groupMins) {
    const auto it = joins.find(gm.v);
    const bool addAndDiscard = it == joins.end() ||
                               gm.cluster == it->second.cluster ||
                               gm.w < it->second.w;
    if (addAndDiscard) {
      inSpanner_[gm.id] = 1;
      discard.insert(pairKey(gm.v, gm.cluster));
    }
  }

  auto processing = [&](VertexId s) {
    return clusterOf_[s] != kNoVertex && !sampled[clusterOf_[s]];
  };
  // Parallel sweep: each edge id writes only its own alive flag, and the
  // discard set is read-only here, so the result is schedule-independent.
  sim_.engine().pool().parallelForChunks(
      g_.numEdges(), 8192, [&](std::size_t begin, std::size_t end) {
        for (EdgeId id = static_cast<EdgeId>(begin); id < end; ++id) {
          if (!alive_[id]) continue;
          const Edge& e = g_.edge(id);
          const VertexId su = superOf_[e.u];
          const VertexId sv = superOf_[e.v];
          const bool deadU =
              processing(su) && discard.count(pairKey(su, clusterOf_[sv])) > 0;
          const bool deadV =
              processing(sv) && discard.count(pairKey(sv, clusterOf_[su])) > 0;
          if (deadU || deadV) alive_[id] = 0;
        }
      });

  std::vector<VertexId> next = clusterOf_;
  for (VertexId s = 0; s < nSuper_; ++s) {
    if (!processing(s)) continue;
    const auto it = joins.find(s);
    next[s] = it != joins.end() ? it->second.cluster : kNoVertex;
  }
  clusterOf_ = std::move(next);

  // Step B6.
  sim_.engine().pool().parallelForChunks(
      g_.numEdges(), 8192, [&](std::size_t begin, std::size_t end) {
        for (EdgeId id = static_cast<EdgeId>(begin); id < end; ++id) {
          if (!alive_[id]) continue;
          const Edge& e = g_.edge(id);
          const VertexId su = superOf_[e.u];
          const VertexId sv = superOf_[e.v];
          if (clusterOf_[su] == clusterOf_[sv]) alive_[id] = 0;
        }
      });
  return static_cast<std::size_t>(
      std::count(rootActive.begin(), rootActive.end(), 1));
}

/// Step C: contract the clustering, deduplicating parallel super-edges via
/// a distributed sort + segmented min over (pair, weight, id) tuples.
void DistClusterEngine::contract() {
  const std::vector<VertexId> relabel = contractClusters();
  for (VertexId& s : superOf_)
    if (s != kNoVertex) s = relabel[s];

  std::vector<PairTuple> tuples;
  for (EdgeId id = 0; id < g_.numEdges(); ++id) {
    if (!alive_[id]) continue;
    const Edge& e = g_.edge(id);
    VertexId a = superOf_[e.u];
    VertexId b = superOf_[e.v];
    if (a > b) std::swap(a, b);
    tuples.push_back({(static_cast<std::uint64_t>(a) << 32) | b, e.w, id});
  }
  DistVector<PairTuple> dv(sim_, tuples);
  distSort(dv, PairByKey{});
  const std::vector<PairTuple> winners =
      segmentedMinSorted(dv, PairKey{}, PairBetter{});

  std::fill(alive_.begin(), alive_.end(), 0);
  for (const PairTuple& t : winners) alive_[t.id] = 1;
}

/// Phase 2 via the kernel: group alive edges by (original endpoint,
/// opposite cluster) with nothing sampled, keep every group minimum.
void DistClusterEngine::phase2() {
  const std::size_t n = g_.numVertices();
  std::vector<VertexId> identityMap(n);
  std::iota(identityMap.begin(), identityMap.end(), 0);
  std::vector<VertexId> clusterPerVertex(n, kNoVertex);
  for (VertexId v = 0; v < n; ++v) {
    const VertexId s = superOf_[v];
    if (s != kNoVertex) clusterPerVertex[v] = clusterOf_[s];
  }
  const DistIterationResult finalPass = distIterationKernel(
      sim_, g_, identityMap, clusterPerVertex, std::vector<char>(n, 0), &alive_);
  for (const GroupMinEdge& gm : finalPass.groupMins) inSpanner_[gm.id] = 1;
}

std::string describe(const MpcSimulator& sim) {
  return std::to_string(sim.numMachines()) + " machines x " +
         std::to_string(sim.wordsPerMachine()) + " words, " +
         std::to_string(sim.numShards()) + " shard(s)" +
         (sim.numShards() == 1 ? "" : " (resident workers, tcp mesh)");
}

SpannerResult runDistSchedule(MpcSimulator& sim, const Graph& g,
                              const char* algorithm, std::uint32_t k,
                              std::uint32_t t, std::uint64_t seed,
                              const std::vector<EpochSpec>& schedule) {
  if (schedule.empty() || g.numVertices() == 0) {
    SpannerResult out = identitySpanner(g, algorithm);
    out.t = t;
    return out;
  }
  const std::size_t startRounds = sim.rounds();
  SpannerResult out = DistClusterEngine(sim, g, k, seed).run(schedule);
  out.algorithm = algorithm;
  out.t = t;
  out.simulatorRounds = sim.rounds() - startRounds;
  out.wordsMoved = sim.totalWordsSent();
  out.simulator = describe(sim);
  return out;
}

}  // namespace

SpannerResult buildDistributedBaswanaSen(MpcSimulator& sim, const Graph& g,
                                         std::uint32_t k, std::uint64_t seed) {
  return runDistSchedule(sim, g, "dist-baswana-sen", k, k, seed,
                         baswanaSenSchedule(g.numVertices(), k));
}

SpannerResult buildDistributedTradeoff(MpcSimulator& sim, const Graph& g,
                                       std::uint32_t k, std::uint32_t t,
                                       std::uint64_t seed) {
  t = tradeoffIterations(k, t);
  return runDistSchedule(sim, g, "dist-tradeoff", k, t, seed,
                         tradeoffSchedule(g.numVertices(), k, t));
}

}  // namespace mpcspan
