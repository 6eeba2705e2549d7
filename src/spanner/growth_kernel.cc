#include "spanner/growth_kernel.hpp"

#include <algorithm>

namespace mpcspan {

namespace {

/// Fixed-size edge chunk for the parallel candidate sweep: depends only on
/// the edge count, never the thread count.
constexpr std::size_t kCandChunk = 8192;

}  // namespace

std::vector<CandTuple> buildCandidates(const Graph& g,
                                       const std::vector<VertexId>& superOf,
                                       const std::vector<VertexId>& clusterOf,
                                       const std::vector<char>& sampled,
                                       const std::vector<char>* alive,
                                       runtime::ThreadPool* pool) {
  auto processing = [&](VertexId s) {
    return clusterOf[s] != kNoVertex && !sampled[clusterOf[s]];
  };
  auto sweep = [&](EdgeId begin, EdgeId end, std::vector<CandTuple>& out) {
    for (EdgeId id = begin; id < end; ++id) {
      if (alive && !(*alive)[id]) continue;
      const Edge& e = g.edge(id);
      const VertexId su = superOf[e.u];
      const VertexId sv = superOf[e.v];
      if (su == kNoVertex || sv == kNoVertex) continue;
      const VertexId cu = clusterOf[su];
      const VertexId cv = clusterOf[sv];
      if (cu == kNoVertex || cv == kNoVertex || cu == cv) continue;
      if (processing(su)) out.push_back({packGroupKey(su, cv), e.w, id});
      if (processing(sv)) out.push_back({packGroupKey(sv, cu), e.w, id});
    }
  };

  const std::size_t m = g.numEdges();
  if (!pool || pool->numThreads() <= 1 || m <= kCandChunk) {
    std::vector<CandTuple> cands;
    cands.reserve(2 * m);
    sweep(0, static_cast<EdgeId>(m), cands);
    return cands;
  }

  const std::size_t numChunks = (m + kCandChunk - 1) / kCandChunk;
  std::vector<std::vector<CandTuple>> parts(numChunks);
  pool->parallelForChunks(m, kCandChunk, [&](std::size_t begin, std::size_t end) {
    auto& out = parts[begin / kCandChunk];
    out.reserve(2 * (end - begin));
    sweep(static_cast<EdgeId>(begin), static_cast<EdgeId>(end), out);
  });
  std::vector<CandTuple> cands;
  std::size_t total = 0;
  for (const auto& part : parts) total += part.size();
  cands.reserve(total);
  for (const auto& part : parts) cands.insert(cands.end(), part.begin(), part.end());
  return cands;
}

DistIterationResult reduceCandidates(std::vector<CandTuple> cands,
                                     const std::vector<char>& sampled) {
  DistIterationResult out;
  std::sort(cands.begin(), cands.end(), CandByKey{});

  // (1) The first candidate of every key is its group's minimum.
  for (std::size_t i = 0; i < cands.size(); ++i) {
    const CandTuple& c = cands[i];
    if (i > 0 && cands[i - 1].key == c.key) continue;
    out.groupMins.push_back(GroupMinEdge{static_cast<VertexId>(c.key >> 32),
                                         static_cast<VertexId>(c.key & 0xffffffffu),
                                         c.w, c.id});
  }

  // (2) Per v, the lightest group minimum of a sampled cluster.
  for (const GroupMinEdge& gm : out.groupMins) {
    if (!sampled[gm.cluster]) continue;
    const ClosestSampled cs{gm.v, gm.cluster, gm.w, gm.id};
    if (out.joins.empty() || out.joins.back().v != gm.v)
      out.joins.push_back(cs);
    else if (cs.w < out.joins.back().w ||
             (cs.w == out.joins.back().w && cs.id < out.joins.back().id))
      out.joins.back() = cs;
  }
  return out;
}

}  // namespace mpcspan
