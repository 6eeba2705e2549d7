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

SpannerOracleProvider::SpannerOracleProvider(
    std::shared_ptr<const SpannerDistanceOracle> oracle, Mode mode,
    double stretchOverride)
    : oracle_(std::move(oracle)), mode_(mode), stretch_(stretchOverride) {
  requireNonNull(oracle_, "SpannerOracleProvider");
  if (stretch_ <= 0) stretch_ = oracle_->spanner().stretchBound;
  if (stretch_ <= 0) stretch_ = 1.0;  // identity spanner at k == 1
}

SpannerOracleProvider::SpannerOracleProvider(
    const SpannerDistanceOracle& oracle, Mode mode, double stretchOverride)
    : SpannerOracleProvider(unowned(oracle), mode, stretchOverride) {}

Weight SpannerOracleProvider::query(VertexId u, VertexId v) const {
  return oracle_->query(u, v);
}

Weight SpannerOracleProvider::tryQuery(VertexId u, VertexId v) const {
  if (mode_ == Mode::kCompute) return oracle_->query(u, v);
  if (u == v) return 0;
  const auto row = oracle_->cachedDistancesFrom(u);
  if (!row) return kNoAnswer;
  return (*row)[v];
}

std::size_t SpannerOracleProvider::memoryWords() const {
  return oracle_->spannerWords() +
         oracle_->cachedRows() * oracle_->spannerGraph().numVertices();
}

}  // namespace mpcspan::query
