// End-to-end distributed spanners on the MPC machine simulator.
//
// Every find-minimum of every iteration (and of phase 2) runs through
// distIterationKernel — i.e., real tuples, real sample sorts, real
// capacity-enforced message rounds — while the cheap label bookkeeping
// (cluster pointers, alive flags) is applied host-side, standing in for the
// Lemma 6.1 sort-based relabeling whose rounds are charged explicitly.
//
// Both builds run one driver loop over the host algorithm's own epoch
// schedule (baswanaSenSchedule, tradeoffSchedule), draw with the same
// scheduleDrawKey hash-coins, and take their certified stretch from the same
// certifySchedule replay as the ClusterEngine. So the distributed execution
// produces the *identical* spanner and profile, edge for edge. That
// equivalence (tested in tests/test_dist_spanner.cc) is the repository's
// strongest evidence that the engine's round ledger corresponds to a real
// constant-round-per-iteration MPC execution.
#pragma once

#include <cstdint>

#include "graph/graph.hpp"
#include "mpc/simulator.hpp"
#include "spanner/types.hpp"

namespace mpcspan {

/// Alias kept for callers that name the distributed result: a distributed
/// build returns the same SpannerResult as a host build, with
/// simulatorRounds, wordsMoved and simulator set.
using DistSpannerResult = SpannerResult;

/// Distributed (2k-1)-spanner; identical output to
/// buildBaswanaSen(g, {k, seed}). `sim` must hold ~4x the edge tuples
/// (query::buildSpanner sizes it).
SpannerResult buildDistributedBaswanaSen(MpcSimulator& sim, const Graph& g,
                                         std::uint32_t k, std::uint64_t seed);

/// Distributed Section-5 trade-off spanner *including contractions* (each
/// contraction's min-edge-per-super-node-pair dedup also runs through a
/// distributed sort + segmented min). Identical output to
/// buildTradeoffSpanner(g, {k, t, seed}): super-node renumbering and every
/// tie-break match the engine's.
SpannerResult buildDistributedTradeoff(MpcSimulator& sim, const Graph& g,
                                       std::uint32_t k, std::uint32_t t,
                                       std::uint64_t seed);

}  // namespace mpcspan
