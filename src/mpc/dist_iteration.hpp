// The find-minimum of one spanner growth iteration, written once for both
// substrates: the host (sim null) and the word-accurate MPC simulator (a
// runtime::RoundEngine facade).
//
// One growth iteration of the Section-5 algorithm reduces to two group-by
// minima over the alive edge set (Section 6 / Lemma 6.1):
//   (1) per (super-node v, neighbouring cluster c): the minimum-weight edge
//       in E(v, c)  — Steps B3/B4's candidate edges;
//   (2) per super-node v: the minimum over (1) restricted to *sampled*
//       clusters — the closest sampled cluster N(v) (Step B3).
// (1) is lightestPerKey: a sort by key, then a segmented minimum. Its
// output is in (v, cluster) order, which is also v order, so (2) is a
// segmented minimum by v with no sort. On the simulator both are real
// tuples moving through machines with enforced memory limits; on the host
// they are one std::sort and linear scans.
//
// ClusterEngine (spanner/engine.hpp) calls findMinimum for every growth
// iteration, its dry runs and phase 2, and lightestPerKey for the
// contraction's lightest edge per super-node pair. The record types and the
// candidate sweep live in spanner/growth_kernel.hpp; the equivalence tests
// (tests/test_dist_iteration.cc) check that both substrates give the same
// decisions bit-for-bit, which is the library's evidence that the charged
// O(1/gamma)-round supersteps are implementable exactly as claimed.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "mpc/simulator.hpp"
#include "spanner/growth_kernel.hpp"

namespace mpcspan {

/// Keeps the CandBetter-lightest tuple per CandKey, in key order: distSort
/// by CandByKey plus segmentedMinSorted on `sim`, or, when `sim` is null,
/// one std::sort plus a first-per-key pass.
std::vector<CandTuple> lightestPerKey(std::vector<CandTuple> tuples,
                                      MpcSimulator* sim);

/// The two find-minimum supersteps for the iteration state
/// (clusterOf[s] = cluster root of super-node s, kNoVertex = exited;
/// sampled[r] marks sampled roots), on `sim` or, when null, on the host.
/// Edges whose endpoints' clusters are both sampled or exited produce no
/// candidates. `superOf` maps each original vertex to its current
/// super-node (kNoVertex = inactive); pass the identity for the first
/// epoch. `alive` (optional) restricts the candidate edges to the
/// still-unprocessed ones; nullptr means every edge of g. The host
/// substrate uses no pool, so it is safe to call concurrently.
DistIterationResult findMinimum(MpcSimulator* sim, const Graph& g,
                                const std::vector<VertexId>& superOf,
                                const std::vector<VertexId>& clusterOf,
                                const std::vector<char>& sampled,
                                const std::vector<char>* alive = nullptr);

/// findMinimum on the simulator.
DistIterationResult distIterationKernel(MpcSimulator& sim, const Graph& g,
                                        const std::vector<VertexId>& superOf,
                                        const std::vector<VertexId>& clusterOf,
                                        const std::vector<char>& sampled,
                                        const std::vector<char>* alive = nullptr);

}  // namespace mpcspan
