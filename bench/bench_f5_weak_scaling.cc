// F5 — weak scaling (figure): the paper's round counts depend on k (and
// gamma), NOT on n. Fixing k and growing n by 64x must leave the round
// ledger untouched while the work (edges touched) grows linearly — the
// defining property of an MPC algorithm in the strongly sublinear regime.
//
// The sweep runs end-to-end through buildDistributedTradeoff: every
// find-minimum of every iteration moves real tuples through capacity-enforced
// simulator rounds (one find-minimum, findMinimum in mpc/dist_iteration.hpp:
// superstep 1 sorts and reduces, superstep 2 reduces its sorted output with
// no sort), so the timed path IS the distributed path. The same ClusterEngine
// on the host substrate is timed alongside as the per-edge-work comparison;
// it must give the same edges, and the bench exits 1 when it does not.
// Lanes/shards follow MPCSPAN_THREADS / MPCSPAN_SHARDS.
#include <chrono>
#include <cmath>

#include "bench/bench_common.hpp"
#include "mpc/dist_spanner.hpp"
#include "spanner/tradeoff.hpp"

using namespace mpcspan;
using namespace mpcspan::bench;

namespace {

double msSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int main() {
  const std::uint32_t k = 8, t = 2;
  printHeader("F5 / weak scaling",
              "simulator rounds independent of n at fixed k (Theorem 1.1); "
              "distributed time ~ m");
  BenchJson json("f5_weak_scaling");

  Table table("n sweep at k=8, t=2 (weighted G(n, 8n)), distributed path");
  table.header({"n", "m", "iters", "sim rounds", "words moved", "|E_S|",
                "|E_S|/n", "dist ms", "ms/edge (x1e-3)", "host ms"});
  for (std::size_t n : {1024u, 4096u, 16384u, 65536u}) {
    const Graph g = weightedGnm(n, 8 * n, /*seed=*/n + 9);

    MpcSimulator sim(MpcConfig::forInput(8 * g.numEdges(), 0.6, 3.0));
    const auto distStart = std::chrono::steady_clock::now();
    const DistSpannerResult dist = buildDistributedTradeoff(sim, g, k, t, 91);
    const double distMs = msSince(distStart);

    TradeoffParams p;
    p.k = k;
    p.t = t;
    p.seed = 91;
    const auto hostStart = std::chrono::steady_clock::now();
    const SpannerResult host = buildTradeoffSpanner(g, p);
    const double hostMs = msSince(hostStart);
    if (dist.edges != host.edges) {
      std::fprintf(stderr, "ERROR: distributed/host spanner mismatch at n=%zu\n", n);
      return 1;
    }

    table.addRow({Table::num(n), Table::num(g.numEdges()),
                  Table::num(dist.iterations), Table::num(dist.simulatorRounds),
                  Table::num(dist.wordsMoved), Table::num(dist.edges.size()),
                  Table::num(double(dist.edges.size()) / double(n), 2),
                  Table::num(distMs, 1),
                  Table::num(1000.0 * distMs / double(g.numEdges()), 3),
                  Table::num(hostMs, 1)});
    json.record({{"n", double(n)},
                 {"m", double(g.numEdges())},
                 {"sim_rounds", double(dist.simulatorRounds)},
                 {"words_moved", double(dist.wordsMoved)},
                 {"dist_ms", distMs},
                 {"host_ms", hostMs}});
  }
  table.print();
  std::printf("# expectation: the sim-rounds column is constant over a 64x growth in\n"
              "# n (weak scaling); distributed time per edge is flat (linear total\n"
              "# work through the machine rounds).\n");
  return 0;
}
