// Exact distance computations used both as reference oracles (to *measure*
// spanner stretch) and as the local computation step of the APSP application
// (Section 7: ship the spanner to one machine, answer queries there).
#pragma once

#include <limits>
#include <vector>

#include "graph/graph.hpp"

namespace mpcspan {

inline constexpr Weight kInfDist = std::numeric_limits<Weight>::infinity();

/// Dijkstra from `src`; returns dist[v] (kInfDist if unreachable).
std::vector<Weight> dijkstra(const Graph& g, VertexId src);

/// Dijkstra truncated at `bound`: any vertex farther than bound keeps
/// kInfDist. Used for cheap per-edge stretch certificates.
std::vector<Weight> dijkstraBounded(const Graph& g, VertexId src, Weight bound);

/// Single-pair distance by bidirectional Dijkstra: the side with the smaller
/// heap scans next, and the search stops once the two heap tops sum to at
/// least the best meeting path seen. That path is then re-summed in
/// src -> dst order, the order dijkstra() adds it up in (the two sides' own
/// sum can differ in the last ulp), so the answer is bit-identical to
/// dijkstra(g, src)[dst] whenever no two paths tie to within float rounding;
/// integer weights sum exactly and never do. Returns kInfDist if
/// d(src, dst) > bound.
Weight dijkstraPair(const Graph& g, VertexId src, VertexId dst, Weight bound = kInfDist);

/// BFS hop distances from `src` (treats the graph as unweighted).
std::vector<std::uint32_t> bfsHops(const Graph& g, VertexId src);
inline constexpr std::uint32_t kInfHops = static_cast<std::uint32_t>(-1);

/// Multi-source BFS: dist/parent/source for the nearest source (hop metric).
/// parentEdge[v] is the edge towards the source (kNoEdge at sources and
/// unreached vertices). Ties broken by source order in the frontier.
struct MultiSourceBfs {
  std::vector<std::uint32_t> hops;
  std::vector<EdgeId> parentEdge;
  std::vector<VertexId> source;  // kNoVertex if unreached
};
MultiSourceBfs multiSourceBfs(const Graph& g, const std::vector<VertexId>& sources,
                              std::uint32_t maxDepth = kInfHops);

/// BFS ball around `src` truncated at `maxHops` hops and at `maxVertices`
/// visited vertices. Returns visited vertices in BFS order and whether the
/// full maxHops-ball was exhausted before hitting the cap (complete=true
/// means the ball is the entire maxHops-neighbourhood). Used by the
/// Appendix-B sparse/dense classification.
struct BfsBall {
  std::vector<VertexId> vertices;
  bool complete = true;
};
BfsBall bfsBall(const Graph& g, VertexId src, std::uint32_t maxHops,
                std::size_t maxVertices);

/// All-pairs distances via n Dijkstra runs. Quadratic memory: intended for
/// n up to a few thousand (reference oracle only).
std::vector<std::vector<Weight>> allPairs(const Graph& g);

}  // namespace mpcspan
