// DistanceProvider adapters over the repo's three answering structures:
// exact Dijkstra on the input graph, Thorup–Zwick sketches, and the
// spanner distance oracle (full or cache-only mode). Each adapter is a
// thin, allocation-free forwarding layer — its answers are bit-identical
// to calling the wrapped structure directly (tested in tests/test_query.cc).
//
// Adapters hold shared_ptr<const T> so a provider can outlive (or share)
// its backing structure; the aliasing-constructor overloads wrap a
// caller-owned reference without taking ownership (caller must keep it
// alive).
#pragma once

#include <memory>
#include <string>

#include "apsp/oracle.hpp"
#include "apsp/sketches.hpp"
#include "query/provider.hpp"

namespace mpcspan::query {

/// Ground truth: single-pair Dijkstra on the input graph. Stretch 1.
/// Queries run the bidirectional dijkstraPair: O(m log n) in the worst case,
/// though each side usually settles only a ball of about half the distance.
/// This is the slowest tier and the one the others fall back to.
class ExactDistanceProvider final : public DistanceProvider {
 public:
  explicit ExactDistanceProvider(std::shared_ptr<const Graph> g);
  /// Non-owning: caller keeps `g` alive for the provider's lifetime.
  explicit ExactDistanceProvider(const Graph& g);

  std::string name() const override { return "exact"; }
  std::size_t numVertices() const override { return g_->numVertices(); }
  Weight query(VertexId u, VertexId v) const override;
  double stretchBound() const override { return 1.0; }
  std::size_t memoryWords() const override;

 private:
  std::shared_ptr<const Graph> g_;
};

/// Thorup–Zwick sketches: O(k) lookups per query, stretch 2k-1 relative to
/// the graph the sketches were built on. When that graph is itself a
/// spanner, pass the composed bound via `stretchOverride`.
class SketchDistanceProvider final : public DistanceProvider {
 public:
  explicit SketchDistanceProvider(std::shared_ptr<const DistanceSketches> sk,
                                  double stretchOverride = 0);
  explicit SketchDistanceProvider(const DistanceSketches& sk,
                                  double stretchOverride = 0);

  std::string name() const override { return "sketch"; }
  std::size_t numVertices() const override { return sk_->numVertices(); }
  Weight query(VertexId u, VertexId v) const override;
  double stretchBound() const override { return stretch_; }
  std::size_t memoryWords() const override { return sk_->memoryWords(); }

 private:
  std::shared_ptr<const DistanceSketches> sk_;
  double stretch_;
};

/// The spanner distance oracle. Two modes:
///  - kCompute: query() Dijkstras (and caches) on a cache miss — always
///    answers.
///  - kCachedOnly: tryQuery() answers only from resident cache rows and
///    declines (kNoAnswer) otherwise; query() still computes. This is the
///    O(1)-latency middle-tier mode of the TieredOracle.
class SpannerOracleProvider final : public DistanceProvider {
 public:
  enum class Mode { kCompute, kCachedOnly };

  explicit SpannerOracleProvider(
      std::shared_ptr<const SpannerDistanceOracle> oracle,
      Mode mode = Mode::kCompute, double stretchOverride = 0);
  explicit SpannerOracleProvider(const SpannerDistanceOracle& oracle,
                                 Mode mode = Mode::kCompute,
                                 double stretchOverride = 0);

  std::string name() const override {
    return mode_ == Mode::kCachedOnly ? "spanner-cache" : "spanner";
  }
  std::size_t numVertices() const override {
    return oracle_->spannerGraph().numVertices();
  }
  Weight query(VertexId u, VertexId v) const override;
  Weight tryQuery(VertexId u, VertexId v) const override;
  double stretchBound() const override { return stretch_; }
  /// Spanner words plus the resident cache rows (n words each).
  std::size_t memoryWords() const override;

  const SpannerDistanceOracle& oracle() const { return *oracle_; }

 private:
  std::shared_ptr<const SpannerDistanceOracle> oracle_;
  Mode mode_;
  double stretch_;
};

}  // namespace mpcspan::query
