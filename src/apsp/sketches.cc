#include "apsp/sketches.hpp"

#include <algorithm>
#include <cmath>
#include <queue>
#include <stdexcept>
#include <unordered_map>

#include "graph/connectivity.hpp"
#include "graph/distance.hpp"
#include "util/rng.hpp"

namespace mpcspan {

namespace {
using QItem = std::pair<Weight, VertexId>;
using MinHeap = std::priority_queue<QItem, std::vector<QItem>, std::greater<>>;
}  // namespace

DistanceSketches::DistanceSketches(const Graph& g, const SketchParams& params)
    : k_(std::max<std::uint32_t>(params.k, 1)), n_(g.numVertices()) {
  build(g, params.seed);
}

DistanceSketches::DistanceSketches(SketchTables t)
    : k_(t.k), n_(static_cast<std::size_t>(t.n)) {
  if (k_ == 0) throw std::invalid_argument("sketch tables: k must be >= 1");
  if (t.pivotDist.size() != k_ + 1 || t.pivot.size() != k_ + 1)
    throw std::invalid_argument("sketch tables: pivot level count != k+1");
  for (std::uint32_t i = 0; i <= k_; ++i)
    if (t.pivotDist[i].size() != n_ || t.pivot[i].size() != n_)
      throw std::invalid_argument("sketch tables: pivot row size != n");
  if (t.bunchStart.size() != n_ + 1 || t.bunchStart.front() != 0)
    throw std::invalid_argument("sketch tables: bad bunch offsets");
  for (std::size_t v = 0; v < n_; ++v)
    if (t.bunchStart[v] > t.bunchStart[v + 1])
      throw std::invalid_argument("sketch tables: non-monotone bunch offsets");
  if (t.bunchStart.back() != t.bunchW.size() ||
      t.bunchW.size() != t.bunchDist.size())
    throw std::invalid_argument("sketch tables: bunch array size mismatch");
  for (VertexId w : t.bunchW)
    if (w >= n_) throw std::invalid_argument("sketch tables: bunch vertex out of range");
  if (t.levelSizes.size() != k_)
    throw std::invalid_argument("sketch tables: level size count != k");
  pivotDist_ = std::move(t.pivotDist);
  pivot_ = std::move(t.pivot);
  bunchStart_ = std::move(t.bunchStart);
  bunchW_ = std::move(t.bunchW);
  bunchDist_ = std::move(t.bunchDist);
  levelSizes_ = std::move(t.levelSizes);
  relaxations_ = static_cast<std::size_t>(t.relaxations);
}

SketchTables DistanceSketches::exportTables() const {
  SketchTables t;
  t.k = k_;
  t.n = n_;
  t.pivotDist = pivotDist_;
  t.pivot = pivot_;
  t.bunchStart = bunchStart_;
  t.bunchW = bunchW_;
  t.bunchDist = bunchDist_;
  t.levelSizes = levelSizes_;
  t.relaxations = relaxations_;
  return t;
}

void DistanceSketches::build(const Graph& g, std::uint64_t seed) {
  // Levels: A_0 = V; A_i keeps each member of A_{i-1} with prob n^{-1/k}.
  const double p =
      std::pow(static_cast<double>(std::max<std::size_t>(n_, 2)),
               -1.0 / static_cast<double>(k_));
  std::vector<std::vector<VertexId>> levels(k_);
  levels[0].resize(n_);
  for (VertexId v = 0; v < n_; ++v) levels[0][v] = v;
  for (std::uint32_t i = 1; i < k_; ++i)
    for (VertexId v : levels[i - 1]) {
      const std::uint64_t h = mix64(seed ^ mix64((std::uint64_t(i) << 32) | v));
      if (static_cast<double>(h >> 11) * 0x1.0p-53 < p) levels[i].push_back(v);
    }
  levelSizes_.clear();
  for (const auto& lvl : levels)
    levelSizes_.push_back(static_cast<VertexId>(lvl.size()));

  // Pivots: multi-source Dijkstra from each level (level k == empty set,
  // distance infinity by convention).
  pivotDist_.assign(k_ + 1, std::vector<Weight>(n_, kInfDist));
  pivot_.assign(k_ + 1, std::vector<VertexId>(n_, kNoVertex));
  for (std::uint32_t i = 0; i < k_; ++i) {
    auto& dist = pivotDist_[i];
    auto& piv = pivot_[i];
    MinHeap heap;
    for (VertexId s : levels[i]) {
      dist[s] = 0;
      piv[s] = s;
      heap.emplace(0.0, s);
    }
    while (!heap.empty()) {
      const auto [d, v] = heap.top();
      heap.pop();
      if (d > dist[v]) continue;
      for (const Incidence& inc : g.neighbors(v)) {
        const Weight nd = d + g.edge(inc.edge).w;
        ++relaxations_;
        if (nd < dist[inc.to]) {
          dist[inc.to] = nd;
          piv[inc.to] = piv[v];
          heap.emplace(nd, inc.to);
        }
      }
    }
  }

  // Bunches: for each w in A_i \ A_{i+1}, a Dijkstra truncated to the
  // region where d(w, v) < d(A_{i+1}, v). Emissions are collected per
  // vertex and flattened to w-sorted arrays afterwards; a vertex can be
  // re-settled at its final distance along tied paths, so emissions are
  // deduplicated by w (the duplicates carry the identical distance).
  std::vector<std::vector<std::pair<VertexId, Weight>>> tmp(n_);
  std::vector<char> inNext(n_, 0);
  for (std::uint32_t i = 0; i < k_; ++i) {
    std::fill(inNext.begin(), inNext.end(), 0);
    if (i + 1 < k_)
      for (VertexId v : levels[i + 1]) inNext[v] = 1;
    for (VertexId w : levels[i]) {
      if (i + 1 < k_ && inNext[w]) continue;  // belongs to a higher level
      std::unordered_map<VertexId, Weight> dist;
      dist.emplace(w, 0.0);
      MinHeap heap;
      heap.emplace(0.0, w);
      while (!heap.empty()) {
        const auto [d, v] = heap.top();
        heap.pop();
        const auto dv = dist.find(v);
        if (dv == dist.end() || d > dv->second) continue;
        tmp[v].emplace_back(w, d);
        for (const Incidence& inc : g.neighbors(v)) {
          const Weight nd = d + g.edge(inc.edge).w;
          ++relaxations_;
          if (nd >= pivotDist_[i + 1][inc.to]) continue;  // TZ truncation
          const auto it = dist.find(inc.to);
          if (it == dist.end() || nd < it->second) {
            dist[inc.to] = nd;
            heap.emplace(nd, inc.to);
          }
        }
      }
    }
  }

  bunchStart_.assign(n_ + 1, 0);
  for (std::size_t v = 0; v < n_; ++v) {
    auto& b = tmp[v];
    std::sort(b.begin(), b.end(),
              [](const auto& a, const auto& c) { return a.first < c.first; });
    b.erase(std::unique(b.begin(), b.end(),
                        [](const auto& a, const auto& c) {
                          return a.first == c.first;
                        }),
            b.end());
    bunchStart_[v + 1] = bunchStart_[v] + b.size();
  }
  bunchW_.reserve(bunchStart_.back());
  bunchDist_.reserve(bunchStart_.back());
  for (std::size_t v = 0; v < n_; ++v) {
    for (const auto& [w, d] : tmp[v]) {
      bunchW_.push_back(w);
      bunchDist_.push_back(d);
    }
    tmp[v].clear();
    tmp[v].shrink_to_fit();
  }
}

Weight DistanceSketches::query(VertexId u, VertexId v) const {
  if (u == v) return 0;
  VertexId w = u;
  Weight du = 0;  // d(w, u)
  for (std::uint32_t i = 0;; ) {
    const auto first = bunchW_.begin() + static_cast<std::ptrdiff_t>(bunchStart_[v]);
    const auto last = bunchW_.begin() + static_cast<std::ptrdiff_t>(bunchStart_[v + 1]);
    const auto it = std::lower_bound(first, last, w);
    if (it != last && *it == w)
      return du + bunchDist_[static_cast<std::size_t>(it - bunchW_.begin())];
    ++i;
    if (i >= k_) return kInfDist;
    std::swap(u, v);
    w = pivot_[i][u];
    if (w == kNoVertex) return kInfDist;
    du = pivotDist_[i][u];
  }
}

SpannerSketches buildSketchesOnSpanner(const Graph& g, const SpannerResult& spanner,
                                       const SketchParams& params) {
  const Graph h = subgraph(g, spanner.edges);
  SpannerSketches out{DistanceSketches(h, params),
                      (2.0 * params.k - 1.0) * spanner.stretchBound,
                      spanner.edges.size()};
  return out;
}

}  // namespace mpcspan
