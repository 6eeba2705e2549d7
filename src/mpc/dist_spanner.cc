#include "mpc/dist_spanner.hpp"

#include <cmath>
#include <numeric>
#include <unordered_map>
#include <unordered_set>

#include <algorithm>

#include "mpc/dist_iteration.hpp"
#include "mpc/primitives.hpp"
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

/// Shared driver state for the distributed spanner constructions.
struct DistState {
  std::vector<VertexId> superOf;    // original vertex -> super-node
  std::vector<VertexId> clusterOf;  // super-node -> cluster root
  std::size_t nSuper = 0;
  std::vector<char> alive;          // per edge id
  std::vector<char> inSpanner;      // per edge id
};

/// One cluster-growth iteration (Steps B1-B6), with the find-minimum work
/// done by distIterationKernel on `sim`. Mirrors ClusterEngine exactly.
void runDistIteration(MpcSimulator& sim, const Graph& g, DistState& st,
                      double p, std::uint64_t seed, std::uint64_t drawKey) {
  std::vector<char> rootActive(st.nSuper, 0);
  for (VertexId s = 0; s < st.nSuper; ++s)
    if (st.clusterOf[s] != kNoVertex) rootActive[st.clusterOf[s]] = 1;
  const std::vector<char> sampled =
      HashCoinPolicy::draw(rootActive, std::clamp(p, 0.0, 1.0), seed, drawKey);

  const DistIterationResult res =
      distIterationKernel(sim, g, st.superOf, st.clusterOf, sampled, &st.alive);

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
      st.inSpanner[gm.id] = 1;
      discard.insert(pairKey(gm.v, gm.cluster));
    }
  }

  auto processing = [&](VertexId s) {
    return st.clusterOf[s] != kNoVertex && !sampled[st.clusterOf[s]];
  };
  // Parallel sweep: each edge id writes only its own alive flag, and the
  // discard set is read-only here, so the result is schedule-independent.
  sim.engine().pool().parallelForChunks(
      g.numEdges(), 8192, [&](std::size_t begin, std::size_t end) {
        for (EdgeId id = static_cast<EdgeId>(begin); id < end; ++id) {
          if (!st.alive[id]) continue;
          const Edge& e = g.edge(id);
          const VertexId su = st.superOf[e.u];
          const VertexId sv = st.superOf[e.v];
          const bool deadU =
              processing(su) && discard.count(pairKey(su, st.clusterOf[sv])) > 0;
          const bool deadV =
              processing(sv) && discard.count(pairKey(sv, st.clusterOf[su])) > 0;
          if (deadU || deadV) st.alive[id] = 0;
        }
      });

  std::vector<VertexId> next = st.clusterOf;
  for (VertexId s = 0; s < st.nSuper; ++s) {
    if (!processing(s)) continue;
    const auto it = joins.find(s);
    next[s] = it != joins.end() ? it->second.cluster : kNoVertex;
  }
  st.clusterOf = std::move(next);

  // Step B6.
  sim.engine().pool().parallelForChunks(
      g.numEdges(), 8192, [&](std::size_t begin, std::size_t end) {
        for (EdgeId id = static_cast<EdgeId>(begin); id < end; ++id) {
          if (!st.alive[id]) continue;
          const Edge& e = g.edge(id);
          const VertexId su = st.superOf[e.u];
          const VertexId sv = st.superOf[e.v];
          if (st.clusterOf[su] == st.clusterOf[sv]) st.alive[id] = 0;
        }
      });
}

/// Step C: contract the clustering, deduplicating parallel super-edges via
/// a distributed sort + segmented min over (pair, weight, id) tuples.
void runDistContraction(MpcSimulator& sim, const Graph& g, DistState& st) {
  // Renumber roots exactly as ClusterEngine::contract does.
  std::vector<VertexId> newId(st.nSuper, kNoVertex);
  std::size_t n2 = 0;
  for (VertexId s = 0; s < st.nSuper; ++s)
    if (st.clusterOf[s] == s) newId[s] = static_cast<VertexId>(n2++);
  for (VertexId v = 0; v < st.superOf.size(); ++v) {
    const VertexId s = st.superOf[v];
    if (s == kNoVertex) continue;
    const VertexId c = st.clusterOf[s];
    st.superOf[v] = c == kNoVertex ? kNoVertex : newId[c];
  }

  std::vector<PairTuple> tuples;
  for (EdgeId id = 0; id < g.numEdges(); ++id) {
    if (!st.alive[id]) continue;
    const Edge& e = g.edge(id);
    VertexId a = st.superOf[e.u];
    VertexId b = st.superOf[e.v];
    if (a > b) std::swap(a, b);
    tuples.push_back({(static_cast<std::uint64_t>(a) << 32) | b, e.w, id});
  }
  DistVector<PairTuple> dv(sim, tuples);
  distSort(dv, PairByKey{});
  const std::vector<PairTuple> winners =
      segmentedMinSorted(dv, PairKey{}, PairBetter{});

  std::fill(st.alive.begin(), st.alive.end(), 0);
  for (const PairTuple& t : winners) st.alive[t.id] = 1;

  st.nSuper = n2;
  st.clusterOf.resize(st.nSuper);
  std::iota(st.clusterOf.begin(), st.clusterOf.end(), 0);
}

/// Phase 2 via the kernel: group alive edges by (original endpoint,
/// opposite cluster) with nothing sampled, keep every group minimum.
void runDistPhase2(MpcSimulator& sim, const Graph& g, DistState& st) {
  const std::size_t n = g.numVertices();
  std::vector<VertexId> identityMap(n);
  std::iota(identityMap.begin(), identityMap.end(), 0);
  std::vector<VertexId> clusterPerVertex(n, kNoVertex);
  for (VertexId v = 0; v < n; ++v) {
    const VertexId s = st.superOf[v];
    if (s != kNoVertex) clusterPerVertex[v] = st.clusterOf[s];
  }
  const DistIterationResult finalPass = distIterationKernel(
      sim, g, identityMap, clusterPerVertex, std::vector<char>(n, 0), &st.alive);
  for (const GroupMinEdge& gm : finalPass.groupMins) st.inSpanner[gm.id] = 1;
}

DistState makeState(const Graph& g) {
  DistState st;
  const std::size_t n = g.numVertices();
  st.superOf.resize(n);
  std::iota(st.superOf.begin(), st.superOf.end(), 0);
  st.clusterOf.resize(n);
  std::iota(st.clusterOf.begin(), st.clusterOf.end(), 0);
  st.nSuper = n;
  st.alive.assign(g.numEdges(), 1);
  st.inSpanner.assign(g.numEdges(), 0);
  return st;
}

}  // namespace

DistSpannerResult buildDistributedBaswanaSen(MpcSimulator& sim, const Graph& g,
                                             std::uint32_t k, std::uint64_t seed) {
  DistSpannerResult out;
  const std::size_t startRounds = sim.rounds();
  const std::size_t n = g.numVertices();
  if (k <= 1 || n == 0) {
    out.edges.resize(g.numEdges());
    std::iota(out.edges.begin(), out.edges.end(), 0);
    return out;
  }

  const double p = std::pow(static_cast<double>(std::max<std::size_t>(n, 2)),
                            -1.0 / static_cast<double>(k));
  DistState st = makeState(g);
  for (std::uint32_t j = 0; j + 1 < k; ++j) {
    // Same draw key / seed as the ClusterEngine's single-epoch schedule,
    // so the sampled sets coincide exactly.
    runDistIteration(sim, g, st, p, seed, /*drawKey=*/j);
    ++out.iterations;
  }
  runDistPhase2(sim, g, st);

  for (EdgeId id = 0; id < g.numEdges(); ++id)
    if (st.inSpanner[id]) out.edges.push_back(id);
  out.simulatorRounds = sim.rounds() - startRounds;
  out.wordsMoved = sim.totalWordsSent();
  return out;
}

DistSpannerResult buildDistributedTradeoff(MpcSimulator& sim, const Graph& g,
                                           std::uint32_t k, std::uint32_t t,
                                           std::uint64_t seed) {
  DistSpannerResult out;
  const std::size_t startRounds = sim.rounds();
  if (k <= 1 || g.numVertices() == 0) {
    out.edges.resize(g.numEdges());
    std::iota(out.edges.begin(), out.edges.end(), 0);
    return out;
  }
  t = tradeoffIterations(k, t);

  DistState st = makeState(g);
  const std::vector<EpochSpec> schedule = tradeoffSchedule(g.numVertices(), k, t);
  for (std::size_t epochIdx = 0; epochIdx < schedule.size(); ++epochIdx) {
    const EpochSpec& spec = schedule[epochIdx];
    std::size_t active = 0;
    for (VertexId s = 0; s < st.nSuper; ++s)
      if (st.clusterOf[s] != kNoVertex) ++active;
    const double p = spec.prob(active);
    for (std::uint32_t j = 0; j < spec.iterations; ++j) {
      const std::uint64_t drawKey = (static_cast<std::uint64_t>(epochIdx) << 32) | j;
      runDistIteration(sim, g, st, p, seed, drawKey);
      ++out.iterations;
    }
    if (spec.contractAfter) runDistContraction(sim, g, st);
  }
  runDistPhase2(sim, g, st);

  for (EdgeId id = 0; id < g.numEdges(); ++id)
    if (st.inSpanner[id]) out.edges.push_back(id);
  out.simulatorRounds = sim.rounds() - startRounds;
  out.wordsMoved = sim.totalWordsSent();
  return out;
}

}  // namespace mpcspan
