// Common result/parameter types for all spanner algorithms.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "mpc/cost_model.hpp"

namespace mpcspan {

/// Output of every spanner construction, host or distributed, together with
/// the execution profile needed to audit the paper's claims (round ledger,
/// cluster-count decay, certified stretch bound).
struct SpannerResult {
  /// Ids (into the input graph's edge list) of spanner edges, sorted.
  std::vector<EdgeId> edges;

  std::string algorithm;
  std::uint32_t k = 0;  // stretch parameter
  std::uint32_t t = 0;  // growth iterations per epoch (0 when n/a)

  /// Superstep/round ledger (see mpc/cost_model.hpp).
  CostModel cost;

  std::size_t epochs = 0;
  std::size_t iterations = 0;  // total cluster-growth iterations executed

  /// Certified weighted-stretch radius of the final clustering (Lemma 5.8 /
  /// Corollary 5.9 recurrence, tracked exactly during the run).
  double finalRadius = 0;

  /// Certified worst-case stretch: every non-spanner edge (u,v,w) satisfies
  /// dist_spanner(u,v) <= stretchBound * w. Derived from the radius
  /// recurrence plus the contraction-chain correction (see engine.cc).
  double stretchBound = 0;

  /// Active super-node count at the start of each epoch (Lemma 5.12 decay).
  std::vector<std::size_t> supernodesPerEpoch;

  /// Cluster (root) count at the start of every growth iteration.
  std::vector<std::size_t> clustersPerIteration;

  /// Sampling probability used in each epoch.
  std::vector<double> samplingProbs;

  /// Theorem 8.1 statistics (Congested Clique parallel repetition).
  struct RepetitionStats {
    long iterationsWithRetry = 0;  // iterations where draw #1 was rejected
    long totalDraws = 0;           // total sampling draws across iterations
  } repetition;

  std::size_t inputVertices = 0;
  std::size_t inputEdges = 0;

  /// Distributed builds only (0 / empty on the host): the communication
  /// rounds the MPC simulator ran, the words it routed in total, and the
  /// machines and shards it ran on.
  std::size_t simulatorRounds = 0;
  std::size_t wordsMoved = 0;
  std::string simulator;

  double sizeRatio(double denomExtra) const;  // |edges| / (n^{1+1/k} * denomExtra)
};

}  // namespace mpcspan
