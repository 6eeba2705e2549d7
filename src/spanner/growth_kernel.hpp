// Substrate-neutral pieces of one spanner growth iteration (Section 6 /
// Lemma 6.1): the record types of the two find-minimum supersteps, their
// orderings, and the candidate sweep.
//
// findMinimum (mpc/dist_iteration.hpp) is the one find-minimum, written
// over an MpcSimulator* that is null on the host: superstep 1 sorts the
// candidates by CandByKey (key, then weight, then edge id) and keeps the
// first per key; superstep 2 takes the lightest sampled group minimum per
// super-node from that key-sorted output, with no second sort. The same
// order on both substrates is what makes their bit-identical decisions
// well-defined.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "runtime/thread_pool.hpp"

namespace mpcspan {

/// Minimum-weight edge of a (super-node, cluster) group.
struct GroupMinEdge {
  VertexId v = 0;        // processing super-node
  VertexId cluster = 0;  // neighbouring cluster root
  Weight w = 0;
  EdgeId id = 0;

  friend bool operator==(const GroupMinEdge&, const GroupMinEdge&) = default;
};

/// The join decision of one processing super-node (Step B3).
struct ClosestSampled {
  VertexId v = 0;
  VertexId cluster = 0;  // N(v)
  Weight w = 0;
  EdgeId id = 0;

  friend bool operator==(const ClosestSampled&, const ClosestSampled&) = default;
};

struct DistIterationResult {
  /// (1) minimum-weight edge per (super-node, cluster), sorted by (v, cluster).
  std::vector<GroupMinEdge> groupMins;
  /// (2) sorted by v; only super-nodes with >= 1 sampled neighbour appear.
  std::vector<ClosestSampled> joins;
  std::size_t roundsUsed = 0;
};

/// Candidate tuple of the find-minimum supersteps (trivially copyable — it
/// is shipped verbatim between machines by the MPC kernel).
struct CandTuple {
  std::uint64_t key;  // (v << 32) | cluster
  double w;
  std::uint32_t id;
};

inline std::uint64_t packGroupKey(VertexId v, VertexId cluster) {
  return (static_cast<std::uint64_t>(v) << 32) | cluster;
}

inline bool betterCand(const CandTuple& a, const CandTuple& b) {
  return a.w < b.w || (a.w == b.w && a.id < b.id);
}

// The orderings of a group-by-key minimum over candidate tuples: the first
// superstep, and the contraction's lightest edge per super-node pair. They
// are stateless, so they cross into the shard workers by type (see
// mpc/primitives.hpp).
struct CandByKey {
  // Primary order is packed word 0 (CandTuple::key), ascending — lets the
  // sort kernels run flat key passes (detail::PackedKeyWord).
  static constexpr std::size_t kPackedKeyWord = 0;
  bool operator()(const CandTuple& a, const CandTuple& b) const {
    if (a.key != b.key) return a.key < b.key;
    return betterCand(a, b);
  }
};
struct CandKey {
  std::uint64_t operator()(const CandTuple& c) const { return c.key; }
};
struct CandBetter {
  bool operator()(const CandTuple& a, const CandTuple& b) const {
    return betterCand(a, b);
  }
};

/// Fixed-size edge chunk of the parallel edge sweeps (the candidate sweep
/// and ClusterEngine's alive-flag sweeps): it depends only on the edge
/// count, never the thread count.
constexpr std::size_t kEdgeChunk = 8192;

/// Candidate edges: one per (processing super-node, incident alive edge).
/// The label joins (attaching superOf/clusterOf to edge tuples) are the
/// sort-based "Clustering" superstep of Lemma 6.1, charged separately by
/// the substrates; here they are applied host-side. When a `pool` is given
/// the edge sweep runs chunk-parallel on it — chunking depends only on the
/// edge count, so the output order equals the serial edge-id order for
/// every thread count.
std::vector<CandTuple> buildCandidates(const Graph& g,
                                       const std::vector<VertexId>& superOf,
                                       const std::vector<VertexId>& clusterOf,
                                       const std::vector<char>& sampled,
                                       const std::vector<char>* alive = nullptr,
                                       runtime::ThreadPool* pool = nullptr);

}  // namespace mpcspan
