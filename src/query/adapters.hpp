// DistanceProvider adapters over the two structures the query plane serves
// from: exact Dijkstra on the input graph and Thorup–Zwick sketches. Each
// adapter is a thin, allocation-free forwarding layer — its answers are
// bit-identical to calling the wrapped structure directly (tested in
// tests/test_query.cc).
//
// Adapters hold shared_ptr<const T>, so a provider shares ownership of its
// backing structure and can outlive the code that built it.
#pragma once

#include <memory>
#include <string>

#include "apsp/sketches.hpp"
#include "query/provider.hpp"

namespace mpcspan::query {

/// Ground truth: single-pair Dijkstra on the input graph. Stretch 1.
/// Queries run the bidirectional dijkstraPair: O(m log n) in the worst case,
/// though each side usually settles only a ball of about half the distance.
/// This is the slowest tier and the most accurate one.
class ExactDistanceProvider final : public DistanceProvider {
 public:
  explicit ExactDistanceProvider(std::shared_ptr<const Graph> g);

  std::string name() const override { return "exact"; }
  std::size_t numVertices() const override { return g_->numVertices(); }
  Weight query(VertexId u, VertexId v) const override;
  double stretchBound() const override { return 1.0; }

 private:
  std::shared_ptr<const Graph> g_;
};

/// Thorup–Zwick sketches: O(k) lookups per query. `stretch` is the bound
/// the provider certifies: the sketches' own 2k-1 when they were built on
/// the input graph, the composed bound when they were built on a spanner.
class SketchDistanceProvider final : public DistanceProvider {
 public:
  SketchDistanceProvider(std::shared_ptr<const DistanceSketches> sk,
                         double stretch);

  std::string name() const override { return "sketch"; }
  std::size_t numVertices() const override { return sk_->numVertices(); }
  Weight query(VertexId u, VertexId v) const override;
  double stretchBound() const override { return stretch_; }

 private:
  std::shared_ptr<const DistanceSketches> sk_;
  double stretch_;
};

}  // namespace mpcspan::query
