// The spanner iteration's distributed kernel, implemented end-to-end on the
// word-accurate MPC simulator (a runtime::RoundEngine facade).
//
// One growth iteration of the Section-5 algorithm reduces to two group-by
// minima over the alive edge set (Section 6 / Lemma 6.1):
//   (1) per (super-node v, neighbouring cluster c): the minimum-weight edge
//       in E(v, c)  — Steps B3/B4's candidate edges;
//   (2) per super-node v: the minimum over (1) restricted to *sampled*
//       clusters — the closest sampled cluster N(v) (Step B3).
// Both are realized as distSort by key followed by segmentedMinSorted, i.e.
// real tuples moving through machines with enforced memory limits.
//
// These are the two find-minimum calls of ClusterEngine (spanner/engine.hpp):
// distIterationKernel on the MPC substrate, referenceIterationKernel on the
// host. The record types, the candidate sweep and the host reduction live in
// spanner/growth_kernel.hpp; the equivalence tests
// (tests/test_dist_iteration.cc) check that the MPC kernel reproduces the
// host engine's find-minimum bit-for-bit, which is the library's evidence
// that the charged O(1/gamma)-round supersteps are implementable exactly as
// claimed.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "mpc/simulator.hpp"
#include "spanner/growth_kernel.hpp"

namespace mpcspan {

/// Runs the kernel on `sim` for the iteration state
/// (clusterOf[s] = cluster root of super-node s, kNoVertex = exited;
/// sampled[r] marks sampled roots). Edges whose endpoints' clusters are both
/// sampled or exited produce no candidates, mirroring the engine.
/// `superOf` maps each original vertex to its current super-node
/// (kNoVertex = inactive); pass the identity for the first epoch.
/// `alive` (optional) restricts the candidate edges to the still-unprocessed
/// ones; nullptr means every edge of g.
DistIterationResult distIterationKernel(MpcSimulator& sim, const Graph& g,
                                        const std::vector<VertexId>& superOf,
                                        const std::vector<VertexId>& clusterOf,
                                        const std::vector<char>& sampled,
                                        const std::vector<char>* alive = nullptr);

/// The host substrate's find-minimum (same tie-breaking, no pool, no
/// rounds): buildCandidates + reduceCandidates. Safe to call concurrently.
DistIterationResult referenceIterationKernel(const Graph& g,
                                             const std::vector<VertexId>& superOf,
                                             const std::vector<VertexId>& clusterOf,
                                             const std::vector<char>& sampled,
                                             const std::vector<char>* alive = nullptr);

}  // namespace mpcspan
