#include "mpc/dist_iteration.hpp"

#include "mpc/primitives.hpp"

namespace mpcspan {

namespace {

// Stateless comparator objects: every sort and segmented-min phase runs as a
// registered kernel, so the orderings cross into the shard workers by type
// and are default-constructed there (see mpc/primitives.hpp). The first
// superstep's (CandByKey, CandKey, CandBetter) live in
// spanner/growth_kernel.hpp, shared with the host.
struct CandVertex {  // v only
  std::uint64_t operator()(const CandTuple& c) const { return c.key >> 32; }
};
struct CandByVertex {
  bool operator()(const CandTuple& a, const CandTuple& b) const {
    if (CandVertex{}(a) != CandVertex{}(b)) return CandVertex{}(a) < CandVertex{}(b);
    return betterCand(a, b);
  }
};

}  // namespace

DistIterationResult distIterationKernel(MpcSimulator& sim, const Graph& g,
                                        const std::vector<VertexId>& superOf,
                                        const std::vector<VertexId>& clusterOf,
                                        const std::vector<char>& sampled,
                                        const std::vector<char>* alive) {
  DistIterationResult out;
  const std::size_t startRounds = sim.rounds();
  runtime::RoundEngine& eng = sim.engine();

  // (1) min edge per (v, cluster): distributed sort + segmented min. The
  // candidate sweep is host-side (the graph lives with the coordinator),
  // and the segmented min returns every group minimum to it.
  std::vector<CandTuple> sampledMins;
  {
    DistVector<CandTuple> dv(sim, buildCandidates(g, superOf, clusterOf,
                                                  sampled, alive, &eng.pool()));
    distSort(dv, CandByKey{});
    const std::vector<CandTuple> reduced =
        segmentedMinSorted(dv, CandKey{}, CandBetter{});
    out.groupMins.reserve(reduced.size());
    for (const CandTuple& c : reduced) {
      const VertexId cluster = static_cast<VertexId>(c.key & 0xffffffffu);
      out.groupMins.push_back(GroupMinEdge{static_cast<VertexId>(c.key >> 32),
                                           cluster, c.w, c.id});
      // (2)'s input: the group minima of *sampled* clusters. Filtering and
      // re-shipping them is free host-side data management between the
      // two supersteps.
      if (cluster < sampled.size() && sampled[cluster]) sampledMins.push_back(c);
    }
  }

  // (2) closest sampled cluster per v: second segmented min, keyed by v,
  // over the sampled-cluster group minima.
  {
    DistVector<CandTuple> dv(sim, sampledMins);
    distSort(dv, CandByVertex{});
    const std::vector<CandTuple> reduced =
        segmentedMinSorted(dv, CandVertex{}, CandBetter{});
    out.joins.reserve(reduced.size());
    for (const CandTuple& c : reduced)
      out.joins.push_back(ClosestSampled{static_cast<VertexId>(c.key >> 32),
                                         static_cast<VertexId>(c.key & 0xffffffffu),
                                         c.w, c.id});
  }

  out.roundsUsed = sim.rounds() - startRounds;
  return out;
}

DistIterationResult referenceIterationKernel(const Graph& g,
                                             const std::vector<VertexId>& superOf,
                                             const std::vector<VertexId>& clusterOf,
                                             const std::vector<char>& sampled,
                                             const std::vector<char>* alive) {
  return reduceCandidates(buildCandidates(g, superOf, clusterOf, sampled, alive),
                          sampled);
}

}  // namespace mpcspan
