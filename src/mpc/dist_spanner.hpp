// End-to-end distributed spanners on the MPC machine simulator.
//
// The builders run ClusterEngine (spanner/engine.hpp) with the simulator as
// its substrate: every find-minimum of every iteration (and of phase 2)
// runs through the one findMinimum (mpc/dist_iteration.hpp) — real tuples,
// real capacity-enforced message rounds: a sample sort and a segmented min
// for superstep 1, and a segmented min with no sort for superstep 2, whose
// input is superstep 1's key-sorted output. Each contraction's
// lightest-edge-per-super-node-pair dedup is superstep 1's lightestPerKey. The cheap label bookkeeping
// (cluster pointers, alive flags) is applied by the coordinator, standing in
// for the Lemma 6.1 sort-based relabeling whose rounds are charged
// explicitly.
//
// The schedule (baswanaSenSchedule, tradeoffSchedule), the hash-coin draws,
// the Step B3/B4 decisions and the certificate are the host build's own
// code, so the distributed execution produces the *identical* spanner and
// profile, edge for edge. That equivalence (tests/test_dist_spanner.cc) is
// the repository's evidence that the engine's round ledger corresponds to a
// real constant-round-per-iteration MPC execution.
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
/// distributed sort + segmented min, lightestPerKey). Identical output to
/// buildTradeoffSpanner(g, {k, t, seed}).
SpannerResult buildDistributedTradeoff(MpcSimulator& sim, const Graph& g,
                                       std::uint32_t k, std::uint32_t t,
                                       std::uint64_t seed);

}  // namespace mpcspan
