#include "query/adapters.hpp"

#include <stdexcept>

#include "graph/distance.hpp"

namespace mpcspan::query {

namespace {
// Wraps a caller-owned reference in a non-owning shared_ptr (aliasing
// constructor with an empty control block).
template <typename T>
std::shared_ptr<const T> unowned(const T& ref) {
  return std::shared_ptr<const T>(std::shared_ptr<const T>(), &ref);
}

template <typename T>
void requireNonNull(const std::shared_ptr<const T>& p, const char* what) {
  if (!p) throw std::invalid_argument(std::string(what) + ": null backing structure");
}
}  // namespace

ExactDistanceProvider::ExactDistanceProvider(std::shared_ptr<const Graph> g)
    : g_(std::move(g)) {
  requireNonNull(g_, "ExactDistanceProvider");
}

ExactDistanceProvider::ExactDistanceProvider(const Graph& g)
    : ExactDistanceProvider(unowned(g)) {}

Weight ExactDistanceProvider::query(VertexId u, VertexId v) const {
  if (u == v) return 0;
  return dijkstraPair(*g_, u, v);
}

std::size_t ExactDistanceProvider::memoryWords() const {
  // CSR: 2 incidences per edge (8 B each), n + 1 offsets (one word each),
  // and m edges (16 B each).
  return 4 * g_->numEdges() + g_->numVertices() + 1;
}

SketchDistanceProvider::SketchDistanceProvider(
    std::shared_ptr<const DistanceSketches> sk, double stretchOverride)
    : sk_(std::move(sk)), stretch_(stretchOverride) {
  requireNonNull(sk_, "SketchDistanceProvider");
  if (stretch_ <= 0) stretch_ = sk_->stretchBound();
}

SketchDistanceProvider::SketchDistanceProvider(const DistanceSketches& sk,
                                               double stretchOverride)
    : SketchDistanceProvider(unowned(sk), stretchOverride) {}

Weight SketchDistanceProvider::query(VertexId u, VertexId v) const {
  return sk_->query(u, v);
}

}  // namespace mpcspan::query
