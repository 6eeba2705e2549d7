// SpannerDistanceOracle — the local half of the Section 7 (MPC) and Section 8
// (Congested Clique) APSP applications: once the near-linear-size spanner H
// sits on one machine, that machine answers any distance query by Dijkstra
// on H.
//
// The oracle is immutable after construction, so query()/distancesFrom()
// are const and safe to call from any number of threads.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "spanner/types.hpp"

namespace mpcspan {

class SpannerDistanceOracle {
 public:
  /// Takes the host graph (for vertex count / ids) and the spanner to
  /// answer from.
  SpannerDistanceOracle(const Graph& g, SpannerResult spanner);

  const SpannerResult& spanner() const { return spanner_; }
  const Graph& spannerGraph() const { return h_; }

  /// Upper bound on d_G(u,v): the spanner distance d_H(u,v), by one
  /// bidirectional dijkstraPair on H (bit-identical to
  /// distancesFrom(u)[v] up to float ties, see graph/distance.hpp).
  /// kInfDist if disconnected.
  Weight query(VertexId u, VertexId v) const;

  /// All spanner distances from src: one Dijkstra on H.
  std::vector<Weight> distancesFrom(VertexId src) const;

  /// Memory footprint of the spanner in words (2 per edge), the quantity
  /// that must fit one machine in the near-linear regime.
  std::size_t spannerWords() const { return 2 * spanner_.edges.size(); }

 private:
  SpannerResult spanner_;
  Graph h_;
};

}  // namespace mpcspan
