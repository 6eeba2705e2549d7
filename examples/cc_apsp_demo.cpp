// Scenario: weighted APSP in the Congested Clique (Corollary 1.5 +
// Theorem 8.1), end to end.
//
// n cluster nodes hold one vertex each. They build the Theorem 8.1 spanner
// (parallel-repetition sampling so the size bound holds w.h.p., not just in
// expectation), disseminate it with Lenzen routing, and then every node
// answers distance queries locally. The demo prints the full round budget
// and compares against what a naive "collect the graph" approach would pay.
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "cclique/apsp_cc.hpp"
#include "graph/distance.hpp"
#include "graph/generators.hpp"

using namespace mpcspan;

int main(int argc, char** argv) {
  const std::size_t n = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 4096;

  Rng rng(3);
  const Graph g = gnmRandom(n, 16 * n, rng, {WeightModel::kInteger, 1000.0},
                            /*connected=*/true);
  std::printf("clique: %zu nodes; input graph m=%zu (weighted)\n", n, g.numEdges());

  const CcApspResult r = runCcApsp(g, {.seed = 9});
  std::printf("spanner: k=%u t=%u -> %zu edges; %ld construction rounds "
              "(incl. 2/iteration repetition overhead), %ld collection rounds\n",
              r.kUsed, r.tUsed, r.oracle.spanner().edges.size(), r.spannerRounds,
              r.collectRounds);
  std::printf("total: %ld clique rounds; retried iterations: %ld of %zu\n",
              r.totalRounds, r.oracle.spanner().repetition.iterationsWithRetry,
              r.oracle.spanner().iterations);

  // The naive alternative: every node learns the whole graph.
  const std::size_t naiveRounds = cliqueCollectRounds(n, 2 * g.numEdges());
  std::printf("naive collect-everything: %zu rounds (%.1fx more)\n", naiveRounds,
              static_cast<double>(naiveRounds) / static_cast<double>(r.totalRounds));

  // Sample a query from node 0's local table.
  const auto approx = r.oracle.distancesFrom(0);
  const auto exact = dijkstra(g, 0);
  double worst = 1.0;
  for (VertexId v = 1; v < g.numVertices(); v += 131)
    if (exact[v] != kInfDist && exact[v] > 0)
      worst = std::max(worst, approx[v] / exact[v]);
  std::printf("sampled approximation from node 0: max ratio %.2f (certified <= %.1f)\n",
              worst, r.approxBound);
  return 0;
}
