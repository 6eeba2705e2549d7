#include "apsp/sketches.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <mutex>
#include <new>
#include <queue>
#include <stdexcept>
#include <string>
#include <utility>

#include "graph/connectivity.hpp"
#include "graph/distance.hpp"
#include "runtime/thread_pool.hpp"
#include "util/rng.hpp"

namespace mpcspan {

namespace {

/// Consecutive bunch sources per chunk. The chunking depends only on n, and
/// the level-(k-1) sources, whose searches span the whole component, fall
/// at random positions, so the pool's slices carry similar work.
constexpr std::size_t kSourcesPerChunk = 32;

/// Allocates whole pages from the system and unmaps them on release. Every
/// buffer that a pool thread grows uses it: through malloc those blocks
/// would land in the pool threads' arenas, which the caller's later
/// allocations never reuse, so the build's freed scratch would stay
/// resident for the rest of the process (and in every process it forks).
/// With std::allocator in its place, the e2ebench build_sharded workload's
/// peak RSS read 621 -> 697 MB (4-core host, 5 of 5 pairs).
template <class T>
struct PageAllocator {
  using value_type = T;
  PageAllocator() = default;
  template <class U>
  PageAllocator(const PageAllocator<U>&) {}

  T* allocate(std::size_t count) {
    void* p = mmap(nullptr, bytes(count), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    return static_cast<T*>(p);
  }
  void deallocate(T* p, std::size_t count) { munmap(p, bytes(count)); }

  template <class U>
  bool operator==(const PageAllocator<U>&) const { return true; }

 private:
  static std::size_t bytes(std::size_t count) {
    return std::max<std::size_t>(count * sizeof(T), 1);
  }
};

template <class T>
using PageVector = std::vector<T, PageAllocator<T>>;

/// Min-heap of (distance, vertex). Every push lowers its vertex's distance
/// strictly, so no two entries are equal and the pop order is the total
/// order of the pairs. An emptied heap keeps its capacity for the next
/// search.
using MinHeap = std::priority_queue<std::pair<Weight, VertexId>,
                                    PageVector<std::pair<Weight, VertexId>>,
                                    std::greater<>>;

/// Multi-source Dijkstra from `sources`: dist[v] = d(sources, v) and
/// piv[v] = the source that realizes it. Returns the neighbour scans.
std::uint64_t pivotSearch(const Graph& g, const std::vector<VertexId>& sources,
                          std::vector<Weight>& dist, std::vector<VertexId>& piv) {
  MinHeap heap;
  for (VertexId s : sources) {
    dist[s] = 0;
    piv[s] = s;
    heap.emplace(0.0, s);
  }
  std::uint64_t scans = 0;
  while (!heap.empty()) {
    const auto [d, v] = heap.top();
    heap.pop();
    if (d > dist[v]) continue;
    scans += g.neighbors(v).size();
    for (const Incidence& inc : g.neighbors(v)) {
      const Weight nd = d + g.edge(inc.edge).w;
      if (nd < dist[inc.to]) {
        dist[inc.to] = nd;
        piv[inc.to] = piv[v];
        heap.emplace(nd, inc.to);
      }
    }
  }
  return scans;
}

/// Bunch emissions: (v[j], w[j], d[j]) means w joins the bunch of v at
/// distance d. Three arrays, so the flatten's range scans read only v.
struct Emissions {
  PageVector<VertexId> v, w;
  PageVector<Weight> d;
};

/// One lane's bunch-search state: a dense distance array that is kInfDist
/// outside the running search, the vertices the search touched, the heap,
/// and the emissions of every chunk it ran, in run order. Checked out per
/// chunk, so at most one exists per running lane.
struct BunchSearch {
  explicit BunchSearch(std::size_t n) : dist(n, kInfDist) {}
  PageVector<Weight> dist;
  PageVector<VertexId> touched;
  MinHeap heap;
  Emissions out;

  /// Dijkstra from w, truncated where d(w, v) >= bound[v] = d(A_{i+1}, v);
  /// returns the neighbour scans. A vertex is pushed only at a strictly
  /// smaller distance and weights are nonnegative, so each reached vertex
  /// is emitted exactly once.
  std::uint64_t run(const Graph& g, VertexId w, const std::vector<Weight>& bound) {
    std::uint64_t scans = 0;
    dist[w] = 0;
    touched.push_back(w);
    heap.emplace(0.0, w);
    while (!heap.empty()) {
      const auto [d, v] = heap.top();
      heap.pop();
      if (d > dist[v]) continue;
      out.v.push_back(v);
      out.w.push_back(w);
      out.d.push_back(d);
      scans += g.neighbors(v).size();
      for (const Incidence& inc : g.neighbors(v)) {
        const Weight nd = d + g.edge(inc.edge).w;
        if (nd >= bound[inc.to] || nd >= dist[inc.to]) continue;
        if (dist[inc.to] == kInfDist) touched.push_back(inc.to);
        dist[inc.to] = nd;
        heap.emplace(nd, inc.to);
      }
    }
    for (VertexId v : touched) dist[v] = kInfDist;
    touched.clear();
    return scans;
  }
};

/// Where one chunk's emissions went: [begin, end) of `from->out`.
struct ChunkSpan {
  const BunchSearch* from = nullptr;
  std::size_t begin = 0, end = 0;
  std::uint64_t scans = 0;
};

/// Lends BunchSearch states to chunks; a state returns when its chunk ends
/// and lives, with its emissions, as long as this object.
class SearchStates {
 public:
  explicit SearchStates(std::size_t n) : n_(n) {}
  std::unique_ptr<BunchSearch> take() {
    {
      std::lock_guard<std::mutex> lock(m_);
      if (!free_.empty()) {
        auto s = std::move(free_.back());
        free_.pop_back();
        return s;
      }
    }
    return std::make_unique<BunchSearch>(n_);
  }
  void give(std::unique_ptr<BunchSearch> s) {
    std::lock_guard<std::mutex> lock(m_);
    free_.push_back(std::move(s));
  }

 private:
  std::size_t n_;
  std::mutex m_;
  std::vector<std::unique_ptr<BunchSearch>> free_;
};

SketchTables buildTables(const Graph& g, std::uint32_t k, std::uint64_t seed,
                         std::size_t lanes) {
  if (lanes > runtime::kMaxThreads)
    throw std::invalid_argument("sketches: lanes = " + std::to_string(lanes) +
                                " is outside [0, " +
                                std::to_string(runtime::kMaxThreads) + "]");
  runtime::ThreadPool pool(lanes);
  const std::size_t n = g.numVertices();
  SketchTables t;
  t.k = k;
  t.n = n;

  // Levels: A_0 = V; A_i keeps each member of A_{i-1} with prob n^{-1/k}.
  // top[v] is the highest level that holds v, so v is a bunch source of
  // level top[v].
  const double p = std::pow(static_cast<double>(std::max<std::size_t>(n, 2)),
                            -1.0 / static_cast<double>(k));
  std::vector<std::vector<VertexId>> levels(k);
  levels[0].resize(n);
  for (VertexId v = 0; v < n; ++v) levels[0][v] = v;
  std::vector<std::uint32_t> top(n, 0);
  for (std::uint32_t i = 1; i < k; ++i)
    for (VertexId v : levels[i - 1]) {
      const std::uint64_t h = mix64(seed ^ mix64((std::uint64_t(i) << 32) | v));
      if (static_cast<double>(h >> 11) * 0x1.0p-53 < p) {
        levels[i].push_back(v);
        top[v] = i;
      }
    }
  for (const auto& lvl : levels)
    t.levelSizes.push_back(static_cast<VertexId>(lvl.size()));

  // Pivots: one multi-source Dijkstra per level, side by side (level k ==
  // empty set, distance infinity by convention).
  t.pivotDist.assign(k + 1, std::vector<Weight>(n, kInfDist));
  t.pivot.assign(k + 1, std::vector<VertexId>(n, kNoVertex));
  std::vector<std::uint64_t> pivotScans(k, 0);
  pool.parallelFor(k, [&](std::size_t i) {
    pivotScans[i] = pivotSearch(g, levels[i], t.pivotDist[i], t.pivot[i]);
  });

  // Bunches: every vertex w is the source of one truncated search at level
  // top[w]. A chunk's emissions are one span of its lane's buffer, recorded
  // by chunk index.
  std::vector<ChunkSpan> spans((n + kSourcesPerChunk - 1) / kSourcesPerChunk);
  SearchStates states(n);
  pool.parallelForChunks(n, kSourcesPerChunk, [&](std::size_t lo, std::size_t hi) {
    std::unique_ptr<BunchSearch> search = states.take();
    ChunkSpan& span = spans[lo / kSourcesPerChunk];
    span.from = search.get();
    span.begin = search->out.v.size();
    for (std::size_t w = lo; w < hi; ++w)
      span.scans +=
          search->run(g, static_cast<VertexId>(w), t.pivotDist[top[w] + 1]);
    span.end = search->out.v.size();
    states.give(std::move(search));
  });

  for (std::uint64_t s : pivotScans) t.relaxations += s;
  for (const ChunkSpan& c : spans) t.relaxations += c.scans;

  // Flatten: a counting sort of the emissions by v, taken chunk by chunk in
  // source order, so each segment comes out in increasing w. Each vertex
  // range is one parallel index that scans every chunk's span and fills
  // only its own vertices.
  const std::size_t parts = pool.numThreads();
  const auto forVertexRanges = [&](const auto& fn) {
    pool.parallelFor(parts, [&](std::size_t r) {
      fn(static_cast<VertexId>(n * r / parts),
         static_cast<VertexId>(n * (r + 1) / parts));
    });
  };
  t.bunchStart.assign(n + 1, 0);
  forVertexRanges([&](VertexId lo, VertexId hi) {
    for (const ChunkSpan& c : spans)
      for (std::size_t j = c.begin; j < c.end; ++j) {
        const VertexId v = c.from->out.v[j];
        if (v >= lo && v < hi) ++t.bunchStart[v + 1];
      }
  });
  for (std::size_t v = 0; v < n; ++v) t.bunchStart[v + 1] += t.bunchStart[v];
  t.bunchW.resize(t.bunchStart[n]);
  t.bunchDist.resize(t.bunchStart[n]);
  forVertexRanges([&](VertexId lo, VertexId hi) {
    PageVector<std::uint64_t> at(t.bunchStart.begin() + lo,
                                 t.bunchStart.begin() + hi);
    for (const ChunkSpan& c : spans)
      for (std::size_t j = c.begin; j < c.end; ++j) {
        const VertexId v = c.from->out.v[j];
        if (v < lo || v >= hi) continue;
        const std::uint64_t at_v = at[v - lo]++;
        t.bunchW[at_v] = c.from->out.w[j];
        t.bunchDist[at_v] = c.from->out.d[j];
      }
  });
  return t;
}

}  // namespace

DistanceSketches::DistanceSketches(const Graph& g, const SketchParams& params,
                                   std::size_t lanes)
    : t_(buildTables(g, std::max<std::uint32_t>(params.k, 1), params.seed,
                     lanes)) {}

DistanceSketches::DistanceSketches(SketchTables t) {
  const std::uint32_t k = t.k;
  const std::size_t n = static_cast<std::size_t>(t.n);
  if (k == 0) throw std::invalid_argument("sketch tables: k must be >= 1");
  if (t.pivotDist.size() != k + 1 || t.pivot.size() != k + 1)
    throw std::invalid_argument("sketch tables: pivot level count != k+1");
  for (std::uint32_t i = 0; i <= k; ++i)
    if (t.pivotDist[i].size() != n || t.pivot[i].size() != n)
      throw std::invalid_argument("sketch tables: pivot row size != n");
  // A_k is empty, so level k has no pivots; query never reads the row.
  for (std::size_t v = 0; v < n; ++v)
    if (t.pivotDist[k][v] != kInfDist || t.pivot[k][v] != kNoVertex)
      throw std::invalid_argument("sketch tables: level-k row is not empty");
  for (const auto& row : t.pivot)
    for (VertexId p : row)
      if (p >= n && p != kNoVertex)
        throw std::invalid_argument("sketch tables: pivot out of range");
  if (t.bunchStart.size() != n + 1 || t.bunchStart.front() != 0)
    throw std::invalid_argument("sketch tables: bad bunch offsets");
  for (std::size_t v = 0; v < n; ++v)
    if (t.bunchStart[v] > t.bunchStart[v + 1])
      throw std::invalid_argument("sketch tables: non-monotone bunch offsets");
  if (t.bunchStart.back() != t.bunchW.size() ||
      t.bunchW.size() != t.bunchDist.size())
    throw std::invalid_argument("sketch tables: bunch array size mismatch");
  for (std::size_t v = 0; v < n; ++v)
    for (std::uint64_t j = t.bunchStart[v]; j < t.bunchStart[v + 1]; ++j) {
      if (t.bunchW[j] >= n)
        throw std::invalid_argument("sketch tables: bunch vertex out of range");
      if (j > t.bunchStart[v] && t.bunchW[j] <= t.bunchW[j - 1])
        throw std::invalid_argument(
            "sketch tables: bunch not strictly increasing in w");
    }
  if (t.levelSizes.size() != k)
    throw std::invalid_argument("sketch tables: level size count != k");
  t_ = std::move(t);
}

Weight DistanceSketches::query(VertexId u, VertexId v) const {
  if (u == v) return 0;
  VertexId w = u;
  Weight du = 0;  // d(w, u)
  for (std::uint32_t i = 0;; ) {
    const auto first =
        t_.bunchW.begin() + static_cast<std::ptrdiff_t>(t_.bunchStart[v]);
    const auto last =
        t_.bunchW.begin() + static_cast<std::ptrdiff_t>(t_.bunchStart[v + 1]);
    const auto it = std::lower_bound(first, last, w);
    if (it != last && *it == w)
      return du + t_.bunchDist[static_cast<std::size_t>(it - t_.bunchW.begin())];
    ++i;
    if (i >= t_.k) return kInfDist;
    std::swap(u, v);
    w = t_.pivot[i][u];
    if (w == kNoVertex) return kInfDist;
    du = t_.pivotDist[i][u];
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
