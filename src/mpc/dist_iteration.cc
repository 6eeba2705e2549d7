#include "mpc/dist_iteration.hpp"

#include <algorithm>
#include <utility>

#include "mpc/primitives.hpp"

namespace mpcspan {

namespace {

// Superstep 2's key. Stateless, so the segmented-min kernel can cross into
// the shard workers by type (see mpc/primitives.hpp); the first superstep's
// (CandByKey, CandKey, CandBetter) live in spanner/growth_kernel.hpp.
struct CandVertex {  // v only
  std::uint64_t operator()(const CandTuple& c) const { return c.key >> 32; }
};

/// The segmented minimum over `tuples`, which are sorted by keyOf: the
/// lightest tuple of each run of equal keys, on `sim` or on the host (in
/// place). On `sim` the host copy is freed as soon as the machines hold the
/// tuples.
template <typename KeyOf>
std::vector<CandTuple> lightestPerRun(std::vector<CandTuple> tuples, KeyOf keyOf,
                                      MpcSimulator* sim) {
  if (sim) {
    DistVector<CandTuple> dv(*sim, std::exchange(tuples, {}));
    return segmentedMinSorted(dv, keyOf, CandBetter{});
  }
  std::size_t runs = 0;
  for (const CandTuple& c : tuples) {
    if (runs == 0 || keyOf(tuples[runs - 1]) != keyOf(c))
      tuples[runs++] = c;
    else if (betterCand(c, tuples[runs - 1]))
      tuples[runs - 1] = c;
  }
  tuples.resize(runs);
  return tuples;
}

}  // namespace

std::vector<CandTuple> lightestPerKey(std::vector<CandTuple> tuples,
                                      MpcSimulator* sim) {
  if (!sim) {
    std::sort(tuples.begin(), tuples.end(), CandByKey{});
    return lightestPerRun(std::move(tuples), CandKey{}, nullptr);
  }
  DistVector<CandTuple> dv(*sim, std::exchange(tuples, {}));
  distSort(dv, CandByKey{});
  return segmentedMinSorted(dv, CandKey{}, CandBetter{});
}

DistIterationResult findMinimum(MpcSimulator* sim, const Graph& g,
                                const std::vector<VertexId>& superOf,
                                const std::vector<VertexId>& clusterOf,
                                const std::vector<char>& sampled,
                                const std::vector<char>* alive) {
  DistIterationResult out;
  const std::size_t startRounds = sim ? sim->rounds() : 0;

  // (1) min edge per (v, cluster). The candidate sweep is host-side (the
  // graph lives with the coordinator), and the group minima return to it.
  const std::vector<CandTuple> groupMins = lightestPerKey(
      buildCandidates(g, superOf, clusterOf, sampled, alive,
                      sim ? &sim->engine().pool() : nullptr),
      sim);
  // (2)'s input: the group minima of *sampled* clusters. Filtering and
  // re-shipping them is free host-side data management between the two
  // supersteps.
  std::vector<CandTuple> sampledMins;
  out.groupMins.reserve(groupMins.size());
  for (const CandTuple& c : groupMins) {
    const VertexId cluster = static_cast<VertexId>(c.key & 0xffffffffu);
    out.groupMins.push_back(GroupMinEdge{static_cast<VertexId>(c.key >> 32),
                                         cluster, c.w, c.id});
    if (sampled[cluster]) sampledMins.push_back(c);
  }

  // (2) closest sampled cluster per v. The group minima are in (v, cluster)
  // order, hence in v order, so the segmented min needs no sort.
  const std::vector<CandTuple> joins =
      lightestPerRun(std::move(sampledMins), CandVertex{}, sim);
  out.joins.reserve(joins.size());
  for (const CandTuple& c : joins)
    out.joins.push_back(ClosestSampled{static_cast<VertexId>(c.key >> 32),
                                       static_cast<VertexId>(c.key & 0xffffffffu),
                                       c.w, c.id});

  out.roundsUsed = sim ? sim->rounds() - startRounds : 0;
  return out;
}

DistIterationResult distIterationKernel(MpcSimulator& sim, const Graph& g,
                                        const std::vector<VertexId>& superOf,
                                        const std::vector<VertexId>& clusterOf,
                                        const std::vector<char>& sampled,
                                        const std::vector<char>* alive) {
  return findMinimum(&sim, g, superOf, clusterOf, sampled, alive);
}

}  // namespace mpcspan
