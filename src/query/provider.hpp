// The query plane's provider contract.
//
// A DistanceProvider answers point-to-point distance estimates over a fixed
// vertex set. The contract every implementation must satisfy:
//
//  - query(u, v) returns an estimate d with d(u,v) <= d <= stretchBound() *
//    d(u,v) for connected pairs, kInfDist for disconnected pairs, and 0 for
//    u == v.
//  - query() always answers; a provider cannot decline a pair.
//  - query() is const and thread-safe: any number of threads may call it
//    concurrently. Implementations achieve this with immutable state or
//    internal synchronization — callers never lock.
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "graph/distance.hpp"
#include "graph/graph.hpp"

namespace mpcspan::query {

using QueryPair = std::pair<VertexId, VertexId>;

class DistanceProvider {
 public:
  virtual ~DistanceProvider() = default;

  /// Short stable identifier ("exact", "sketch", ...).
  virtual std::string name() const = 0;

  /// Vertex count of the universe this provider answers over.
  virtual std::size_t numVertices() const = 0;

  /// Distance estimate per the contract above.
  virtual Weight query(VertexId u, VertexId v) const = 0;

  /// Certified multiplicative stretch: query(u,v) <= stretchBound()*d(u,v).
  virtual double stretchBound() const = 0;
};

}  // namespace mpcspan::query
