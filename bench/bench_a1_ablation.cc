// A1 — ablations of two design choices of the cluster-growth engine:
//
//  (a) Step B3's strictly-lighter rule: when a super-node joins its closest
//      sampled cluster with edge e, it must also add the minimum edge to
//      every neighbouring cluster lighter than e. This is what makes the
//      construction correct on *weighted* graphs (Theorem 4.8's property
//      (B)); without it the per-edge stretch certificate can fail.
//  (b) The doubly-exponential probability schedule p_i = n^{-(t+1)^{i-1}/k}
//      vs a naive fixed p = n^{-1/k}: the decreasing schedule is what makes
//      super-node counts collapse doubly exponentially (Lemma 5.12) and
//      keeps phase 2 cheap.
#include <cmath>

#include "bench/bench_common.hpp"
#include "spanner/engine.hpp"
#include "spanner/tradeoff.hpp"

using namespace mpcspan;
using namespace mpcspan::bench;

int main() {
  const std::size_t n = 4096;
  printHeader("A1 / ablations",
              "(a) strictly-lighter rule [weighted correctness]; "
              "(b) probability schedule [doubly-exponential decay]");

  // --- (a) strictly-lighter rule -------------------------------------------
  {
    Rng rng(71);
    // Heavy-tailed weights maximize the rule's bite.
    const Graph g =
        gnmRandom(n, 8 * n, rng, {WeightModel::kExponential, 1000.0}, true);
    Table table("(a) Step B3 lighter-rule on/off, k=8, t=1, heavy-tailed weights");
    table.header({"variant", "|E_S|", "max edge stretch", "certified",
                  "violations (full audit)"});
    for (bool rule : {true, false}) {
      ClusterEngine::Options opts;
      opts.seed = 73;
      opts.strictLighterRule = rule;
      ClusterEngine engine(g, 8, opts);
      const SpannerResult r = engine.run(tradeoffSchedule(n, 8, 1));
      const StretchReport report =
          verifySpanner(g, r.edges, r.stretchBound,
                        {.maxEdgeChecks = 6000, .pairSources = 0});
      table.addRow({rule ? "with rule (paper)" : "WITHOUT rule",
                    Table::num(r.edges.size()),
                    Table::num(report.maxEdgeStretch, 1),
                    Table::num(r.stretchBound, 1),
                    Table::num(report.violations)});
    }
    table.print();
  }

  // --- (b) probability schedule --------------------------------------------
  {
    Rng rng(79);
    const Graph g = gnmRandom(n, 8 * n, rng, {WeightModel::kUniform, 50.0}, true);
    const std::uint32_t k = 16;
    const double pFixed = std::pow(double(n), -1.0 / double(k));
    Table table("(b) p_i schedule: doubly-exponential vs fixed n^{-1/k} "
                "(k=16, t=1, same epoch count)");
    table.header({"schedule", "epochs", "supernodes at last epoch", "|E_S|",
                  "measured stretch"});

    ClusterEngine::Options opts;
    opts.seed = 83;
    {
      ClusterEngine engine(g, k, opts);
      const SpannerResult r = engine.run(tradeoffSchedule(n, k, 1));
      table.addRow({"n^{-2^{i-1}/k} (paper)", Table::num(r.epochs),
                    Table::num(r.supernodesPerEpoch.back()),
                    Table::num(r.edges.size()),
                    Table::num(measuredStretch(g, r), 2)});
    }
    {
      std::vector<EpochSpec> fixed(tradeoffSchedule(n, k, 1).size());
      for (auto& e : fixed) {
        e.iterations = 1;
        e.prob = [pFixed](std::size_t) { return pFixed; };
        e.contractAfter = true;
      }
      ClusterEngine engine(g, k, opts);
      const SpannerResult r = engine.run(fixed);
      table.addRow({"fixed n^{-1/k}", Table::num(r.epochs),
                    Table::num(r.supernodesPerEpoch.back()),
                    Table::num(r.edges.size()),
                    Table::num(measuredStretch(g, r), 2)});
    }
    table.print();
  }
  std::printf("# expectation: (a) removing the rule produces certificate violations\n"
              "# on weighted inputs (stretch above the certified bound) — with it,\n"
              "# zero; (b) the fixed schedule leaves orders of magnitude more\n"
              "# super-nodes alive at the last epoch, inflating phase-2 size.\n");
  return 0;
}
