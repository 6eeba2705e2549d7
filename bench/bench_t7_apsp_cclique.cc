// T7 — Corollary 1.5 + Theorem 8.1: weighted APSP in the Congested Clique.
// Spanner rounds (with the O(1)/iteration repetition overhead), Lenzen
// collection rounds, w.h.p. size behaviour across seeds, and approximation.
#include <cmath>

#include "bench/bench_common.hpp"
#include "cclique/apsp_cc.hpp"
#include "graph/distance.hpp"
#include "util/stats.hpp"

using namespace mpcspan;
using namespace mpcspan::bench;

int main() {
  printHeader("T7 / Corollary 1.5 + Theorem 8.1",
              "first sublogarithmic weighted APSP in Congested Clique: "
              "O(t log log n / log(t+1)) rounds incl. spanner collection");

  Table table("n sweep (auto k = log n, t = log log n)");
  table.header({"n", "m", "k", "t", "spanner rds", "collect rds", "total",
                "|E_S|", "|E_S|/n", "retries", "max approx"});
  for (std::size_t n : {512u, 2048u, 8192u}) {
    const Graph g = weightedGnm(n, 8 * n, /*seed=*/n + 1);
    const CcApspResult r = runCcApsp(g, {.seed = 23});
    // approximation audit from two sources
    double worst = 1.0;
    for (VertexId src : {VertexId(0), VertexId(n / 2)}) {
      const auto exact = dijkstra(g, src);
      const auto approx = r.oracle.distancesFrom(src);
      for (VertexId v = 0; v < g.numVertices(); ++v)
        if (v != src && exact[v] != kInfDist && exact[v] > 0)
          worst = std::max(worst, approx[v] / exact[v]);
    }
    table.addRow({Table::num(n), Table::num(g.numEdges()), Table::num(int(r.kUsed)),
                  Table::num(int(r.tUsed)), Table::num(r.spannerRounds),
                  Table::num(r.collectRounds), Table::num(r.totalRounds),
                  Table::num(r.oracle.spanner().edges.size()),
                  Table::num(double(r.oracle.spanner().edges.size()) / double(n), 2),
                  Table::num(r.oracle.spanner().repetition.iterationsWithRetry),
                  Table::num(worst, 2)});
  }

  table.print();

  // w.h.p. size: the repetition machinery should keep every seed's size
  // inside one envelope (Theorem 8.1 vs the expectation-only MPC run).
  const std::size_t n = 2048;
  const Graph g = weightedGnm(n, 8 * n, /*seed=*/77);
  std::vector<double> sizes;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const CcApspResult r = runCcApsp(g, {.seed = seed});
    sizes.push_back(double(r.oracle.spanner().edges.size()));
  }
  const Summary s = summarize(sizes);
  std::printf("\nw.h.p. size across 10 seeds (n=%zu): min=%.0f p50=%.0f max=%.0f "
              "(max/min = %.3f)\n",
              n, s.min, s.p50, s.max, s.max / s.min);
  std::printf("# expectation: collect rounds ~ 2|E_S|/n ~ O(log log n)-ish scaling;\n"
              "# size spread across seeds stays within a small constant factor.\n");
  return 0;
}
