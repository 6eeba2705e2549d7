#include "query/adapters.hpp"

#include <stdexcept>

#include "graph/distance.hpp"

namespace mpcspan::query {

namespace {
template <typename T>
void requireNonNull(const std::shared_ptr<const T>& p, const char* what) {
  if (!p) throw std::invalid_argument(std::string(what) + ": null backing structure");
}
}  // namespace

ExactDistanceProvider::ExactDistanceProvider(std::shared_ptr<const Graph> g)
    : g_(std::move(g)) {
  requireNonNull(g_, "ExactDistanceProvider");
}

Weight ExactDistanceProvider::query(VertexId u, VertexId v) const {
  if (u == v) return 0;
  return dijkstraPair(*g_, u, v);
}

SketchDistanceProvider::SketchDistanceProvider(
    std::shared_ptr<const DistanceSketches> sk, double stretch)
    : sk_(std::move(sk)), stretch_(stretch) {
  requireNonNull(sk_, "SketchDistanceProvider");
}

Weight SketchDistanceProvider::query(VertexId u, VertexId v) const {
  return sk_->query(u, v);
}

}  // namespace mpcspan::query
