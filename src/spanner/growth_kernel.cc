#include "spanner/growth_kernel.hpp"

namespace mpcspan {

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
  if (!pool || pool->numThreads() <= 1 || m <= kEdgeChunk) {
    std::vector<CandTuple> cands;
    cands.reserve(2 * m);
    sweep(0, static_cast<EdgeId>(m), cands);
    return cands;
  }

  const std::size_t numChunks = (m + kEdgeChunk - 1) / kEdgeChunk;
  std::vector<std::vector<CandTuple>> parts(numChunks);
  pool->parallelForChunks(m, kEdgeChunk, [&](std::size_t begin, std::size_t end) {
    auto& out = parts[begin / kEdgeChunk];
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

}  // namespace mpcspan
