// Thorup–Zwick distance sketches, and the spanner-accelerated variant.
//
// The paper motivates its spanners partly through [DN19]: distance-sketch
// preprocessing is dominated by graph size, so computing the sketches on a
// near-linear-size spanner instead of the input graph cuts the work from
// O~(m n^{1/k}) to O~(n^{1+1/k+o(1)}) at a multiplicative stretch cost.
// This module implements the classical Thorup–Zwick construction
// (levels A_0 ⊇ A_1 ⊇ … ⊇ A_{k-1}, pivots, bunches; stretch 2k-1 and
// expected bunch size O(k n^{1/k})) plus a helper that builds it on top of
// any SpannerResult, with the composed stretch certificate.
//
// Construction is one parallel, deterministic pass on the lanes of a
// runtime::ThreadPool; one lane runs the same code inline. The k pivot
// searches run side by side. The bunch searches, one per source vertex
// (each w in A_i \ A_{i+1} grows a Dijkstra truncated where
// d(w, v) >= d(A_{i+1}, v)), run in fixed chunks of consecutive sources;
// each chunk's (v, w, d) emissions form one span of its lane's buffer,
// recorded by chunk index. The flatten buckets the emissions by v, chunk by
// chunk in source order, in parallel by vertex range, so every bunch comes
// out sorted by w. Nothing in the result depends on the lane count: the
// tables, the relaxation count included, are the same bytes at every lane
// count.
//
// Memory beyond the tables: per lane, one dense distance array of n
// Weights (reset through a touched list after each source), one heap, and
// its emissions, 16 bytes each, until the flatten has copied them into the
// tables. These buffers are pages mapped for the build and unmapped after
// it, so none of them stays resident in the pool threads' malloc arenas.
//
// Bunches are stored as flat per-vertex (w, dist) arrays sorted by w —
// query is a binary search over a contiguous segment, and the whole
// structure round-trips through SketchTables for the build-once /
// serve-many query artifacts (src/query/build.hpp). All query methods are
// const and safe to call concurrently.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "spanner/types.hpp"

namespace mpcspan {

struct SketchParams {
  std::uint32_t k = 3;  // levels; stretch 2k-1
  std::uint64_t seed = 1;
};

/// The complete serialized state of a DistanceSketches instance: everything
/// queries touch, exported for artifact save and adopted on artifact load
/// (no rebuild). Field invariants are validated by the adopting
/// constructor.
struct SketchTables {
  std::uint32_t k = 0;
  std::uint64_t n = 0;
  // pivotDist[i][v] = d(A_i, v); pivot[i][v] = the realizing vertex, or
  // kNoVertex when v cannot reach A_i. k+1 levels each (level k = empty
  // set, distance infinity).
  std::vector<std::vector<Weight>> pivotDist;
  std::vector<std::vector<VertexId>> pivot;
  // Bunch of v: entries [bunchStart[v], bunchStart[v+1]) of the flat
  // arrays, strictly increasing in bunchW within the segment.
  std::vector<std::uint64_t> bunchStart;  // n + 1 offsets
  std::vector<VertexId> bunchW;
  std::vector<Weight> bunchDist;
  std::vector<VertexId> levelSizes;
  std::uint64_t relaxations = 0;
};

class DistanceSketches {
 public:
  /// Builds the sketches of g on `lanes` lanes of a runtime::ThreadPool:
  /// 0 means the pool's default (MPCSPAN_THREADS, else the hardware lanes)
  /// and 1 runs inline on the calling thread. The tables are identical at
  /// every lane count. Throws std::invalid_argument when `lanes` exceeds
  /// runtime::kMaxThreads.
  DistanceSketches(const Graph& g, const SketchParams& params,
                   std::size_t lanes = 0);

  /// Adopts prebuilt tables (artifact load path). Throws
  /// std::invalid_argument on any internal inconsistency (size mismatch,
  /// non-monotone bunch offsets, a bunch not strictly increasing in w,
  /// out-of-range ids), so a corrupt artifact fails cleanly instead of
  /// constructing a sketch whose binary searches answer wrongly.
  explicit DistanceSketches(SketchTables tables);

  /// The query state, as saved in an artifact.
  const SketchTables& tables() const { return t_; }

  /// A copy of tables().
  SketchTables exportTables() const { return t_; }

  /// Estimated distance; at most (2k-1) * d(u,v), at least d(u,v).
  /// kInfDist when u,v are disconnected. Thread-safe (const state only).
  Weight query(VertexId u, VertexId v) const;

  std::uint32_t k() const { return t_.k; }
  std::size_t numVertices() const { return static_cast<std::size_t>(t_.n); }
  double stretchBound() const { return 2.0 * t_.k - 1.0; }

  /// Sum of bunch sizes (the sketch storage; expected O(k n^{1+1/k})).
  std::size_t totalBunchEntries() const { return t_.bunchW.size(); }

  /// Edge relaxations performed during preprocessing (the [DN19] cost that
  /// spanners shrink).
  std::size_t preprocessingRelaxations() const {
    return static_cast<std::size_t>(t_.relaxations);
  }

  const std::vector<VertexId>& levelSizes() const { return t_.levelSizes; }

 private:
  SketchTables t_;
};

/// Sketches computed on the spanner instead of g (the [DN19] application).
/// The composed stretch certificate is (2k-1) * spanner.stretchBound.
struct SpannerSketches {
  DistanceSketches sketches;
  double composedStretchBound = 0;
  std::size_t spannerEdges = 0;
};

/// Builds on the pool's default lanes.
SpannerSketches buildSketchesOnSpanner(const Graph& g, const SpannerResult& spanner,
                                       const SketchParams& params);

}  // namespace mpcspan
