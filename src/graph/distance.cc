#include "graph/distance.hpp"

#include <queue>
#include <utility>

namespace mpcspan {

namespace {
using QItem = std::pair<Weight, VertexId>;  // (dist, vertex), min-heap
using MinHeap = std::priority_queue<QItem, std::vector<QItem>, std::greater<>>;
}  // namespace

std::vector<Weight> dijkstra(const Graph& g, VertexId src) {
  return dijkstraBounded(g, src, kInfDist);
}

std::vector<Weight> dijkstraBounded(const Graph& g, VertexId src, Weight bound) {
  std::vector<Weight> dist(g.numVertices(), kInfDist);
  MinHeap heap;
  dist[src] = 0;
  heap.emplace(0.0, src);
  while (!heap.empty()) {
    const auto [d, v] = heap.top();
    heap.pop();
    if (d > dist[v]) continue;
    for (const Incidence& inc : g.neighbors(v)) {
      const Weight nd = d + g.edge(inc.edge).w;
      if (nd < dist[inc.to] && nd <= bound) {
        dist[inc.to] = nd;
        heap.emplace(nd, inc.to);
      }
    }
  }
  return dist;
}

Weight dijkstraPair(const Graph& g, VertexId src, VertexId dst, Weight bound) {
  if (src == dst) return 0;
  const std::size_t n = g.numVertices();
  std::vector<Weight> distF(n, kInfDist), distB(n, kInfDist);
  std::vector<EdgeId> parentB(n, kNoEdge);  // edge towards dst
  MinHeap heapF, heapB;
  distF[src] = 0;
  heapF.emplace(0.0, src);
  distB[dst] = 0;
  heapB.emplace(0.0, dst);
  // mu: the best src-dst path seen so far, through the meeting edge
  // meetF -> meetB with meetF labelled forward and meetB backward.
  Weight mu = kInfDist;
  VertexId meetF = kNoVertex, meetB = kNoVertex;
  EdgeId meetEdge = kNoEdge;
  while (!heapF.empty() && !heapB.empty() &&
         heapF.top().first + heapB.top().first < mu) {
    const bool forward = heapF.size() <= heapB.size();
    MinHeap& heap = forward ? heapF : heapB;
    std::vector<Weight>& dist = forward ? distF : distB;
    const std::vector<Weight>& other = forward ? distB : distF;
    const auto [d, v] = heap.top();
    heap.pop();
    if (d > dist[v]) continue;
    for (const Incidence& inc : g.neighbors(v)) {
      const Weight nd = d + g.edge(inc.edge).w;
      const Weight through = nd + other[inc.to];
      if (through < mu) {
        mu = through;
        meetF = forward ? v : inc.to;
        meetB = forward ? inc.to : v;
        meetEdge = inc.edge;
      }
      if (nd < dist[inc.to] && nd < mu && nd <= bound) {
        dist[inc.to] = nd;
        if (!forward) parentB[inc.to] = inc.edge;
        heap.emplace(nd, inc.to);
      }
    }
  }
  if (meetEdge == kNoEdge) return kInfDist;
  // Re-sum the meeting path in src -> dst order, the order in which
  // dijkstra() folds it; mu itself may differ from that in the last ulp.
  Weight d = distF[meetF] + g.edge(meetEdge).w;
  for (VertexId y = meetB; y != dst;) {
    const EdgeId e = parentB[y];
    d += g.edge(e).w;
    y = g.opposite(e, y);
  }
  return d > bound ? kInfDist : d;
}

std::vector<std::uint32_t> bfsHops(const Graph& g, VertexId src) {
  std::vector<std::uint32_t> hops(g.numVertices(), kInfHops);
  std::vector<VertexId> frontier{src};
  hops[src] = 0;
  std::uint32_t depth = 0;
  while (!frontier.empty()) {
    ++depth;
    std::vector<VertexId> next;
    for (VertexId v : frontier)
      for (const Incidence& inc : g.neighbors(v))
        if (hops[inc.to] == kInfHops) {
          hops[inc.to] = depth;
          next.push_back(inc.to);
        }
    frontier = std::move(next);
  }
  return hops;
}

MultiSourceBfs multiSourceBfs(const Graph& g, const std::vector<VertexId>& sources,
                              std::uint32_t maxDepth) {
  MultiSourceBfs out;
  out.hops.assign(g.numVertices(), kInfHops);
  out.parentEdge.assign(g.numVertices(), kNoEdge);
  out.source.assign(g.numVertices(), kNoVertex);
  std::vector<VertexId> frontier;
  for (VertexId s : sources) {
    if (out.hops[s] != kInfHops) continue;
    out.hops[s] = 0;
    out.source[s] = s;
    frontier.push_back(s);
  }
  std::uint32_t depth = 0;
  while (!frontier.empty() && depth < maxDepth) {
    ++depth;
    std::vector<VertexId> next;
    for (VertexId v : frontier)
      for (const Incidence& inc : g.neighbors(v))
        if (out.hops[inc.to] == kInfHops) {
          out.hops[inc.to] = depth;
          out.parentEdge[inc.to] = inc.edge;
          out.source[inc.to] = out.source[v];
          next.push_back(inc.to);
        }
    frontier = std::move(next);
  }
  return out;
}

BfsBall bfsBall(const Graph& g, VertexId src, std::uint32_t maxHops,
                std::size_t maxVertices) {
  BfsBall ball;
  if (maxVertices == 0) {
    ball.complete = false;
    return ball;
  }
  std::vector<char> seen(g.numVertices(), 0);
  std::vector<VertexId> frontier{src};
  seen[src] = 1;
  ball.vertices.push_back(src);
  std::uint32_t depth = 0;
  while (!frontier.empty() && depth < maxHops) {
    ++depth;
    std::vector<VertexId> next;
    for (VertexId v : frontier)
      for (const Incidence& inc : g.neighbors(v)) {
        if (seen[inc.to]) continue;
        if (ball.vertices.size() >= maxVertices) {
          ball.complete = false;
          return ball;
        }
        seen[inc.to] = 1;
        ball.vertices.push_back(inc.to);
        next.push_back(inc.to);
      }
    frontier = std::move(next);
  }
  return ball;
}

std::vector<std::vector<Weight>> allPairs(const Graph& g) {
  std::vector<std::vector<Weight>> out;
  out.reserve(g.numVertices());
  for (VertexId v = 0; v < g.numVertices(); ++v) out.push_back(dijkstra(g, v));
  return out;
}

}  // namespace mpcspan
