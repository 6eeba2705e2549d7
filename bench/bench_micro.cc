// M1 — google-benchmark micro suite: throughput of the substrate pieces
// (generators, Dijkstra, engine iterations, distributed primitives, and the
// round-engine runtime itself at the configured lane/shard counts —
// MPCSPAN_THREADS / MPCSPAN_SHARDS — which is what the CI benchmark job
// sweeps).
#include <benchmark/benchmark.h>

#include <numeric>
#include <string>

#include "graph/distance.hpp"
#include "graph/generators.hpp"
#include "mpc/dist_iteration.hpp"
#include "mpc/primitives.hpp"
#include "runtime/round_engine.hpp"
#include "spanner/baswana_sen.hpp"
#include "spanner/engine.hpp"
#include "spanner/tradeoff.hpp"
#include "spanner/verify.hpp"
#include "util/rng.hpp"

namespace {

using namespace mpcspan;

void BM_GnmGenerate(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    Rng rng(seed++);
    benchmark::DoNotOptimize(gnmRandom(n, 8 * n, rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 8 * n);
}
BENCHMARK(BM_GnmGenerate)->Arg(1 << 10)->Arg(1 << 13);

void BM_Dijkstra(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  const Graph g = gnmRandom(n, 8 * n, rng, {WeightModel::kUniform, 10.0}, true);
  VertexId src = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dijkstra(g, src));
    src = static_cast<VertexId>((src + 1) % n);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 8 * n);
}
BENCHMARK(BM_Dijkstra)->Arg(1 << 10)->Arg(1 << 13);

void BM_BaswanaSen(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(11);
  const Graph g = gnmRandom(n, 8 * n, rng, {WeightModel::kUniform, 10.0}, true);
  std::uint64_t seed = 1;
  for (auto _ : state)
    benchmark::DoNotOptimize(buildBaswanaSen(g, {.k = 4, .seed = seed++}));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 8 * n);
}
BENCHMARK(BM_BaswanaSen)->Arg(1 << 10)->Arg(1 << 13);

void BM_TradeoffSpanner(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(13);
  const Graph g = gnmRandom(n, 8 * n, rng, {WeightModel::kUniform, 10.0}, true);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    TradeoffParams p;
    p.k = 16;
    p.t = 0;
    p.seed = seed++;
    benchmark::DoNotOptimize(buildTradeoffSpanner(g, p));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 8 * n);
}
BENCHMARK(BM_TradeoffSpanner)->Arg(1 << 10)->Arg(1 << 13);

void BM_DistSort(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(17);
  std::vector<std::uint64_t> data(n);
  for (auto& x : data) x = rng.next(1u << 24);
  for (auto _ : state) {
    MpcSimulator sim(MpcConfig::forInput(n, 0.6, 3.0));
    DistVector<std::uint64_t> dv(sim, data);
    distSort(dv, std::less<>());
    benchmark::DoNotOptimize(dv.collectHostSide());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_DistSort)->Arg(1 << 12)->Arg(1 << 15);

/// One machine-centric kernel round with per-machine local compute: the
/// stepping pool's scaling surface. Lanes follow MPCSPAN_THREADS, shards
/// MPCSPAN_SHARDS, so the CI job compares 1-lane vs N-lane (and sharded)
/// wall-clock on the identical deterministic workload. args[0] = spin.
class SpinKernel final : public runtime::StepKernel {
 public:
  static std::string kernelName() { return "bench.spin"; }

  void step(const runtime::KernelCtx& ctx, runtime::WordRows& out) override {
    // Deterministic local work standing in for a machine's round compute.
    std::uint64_t h = ctx.machine + 1;
    for (Word i = 0; i < ctx.args[0]; ++i)
      h = h * 6364136223846793005ULL + 1442695040888963407ULL;
    out.add((ctx.machine + 1) % ctx.numMachines, {h});
  }
};

void BM_EngineStep(benchmark::State& state) {
  using namespace mpcspan::runtime;
  const auto machines = static_cast<std::size_t>(state.range(0));
  const auto spin = static_cast<std::size_t>(state.range(1));
  RoundEngine eng(EngineConfig{machines, 0, 0},
                  MpcTopology(1u << 20));
  const KernelId k = ensureKernel<SpinKernel>(eng);
  for (auto _ : state) eng.step(k, {spin});
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(machines * spin));
}
BENCHMARK(BM_EngineStep)->Args({64, 20000})->Args({256, 5000});

/// Per-round dispatch latency of the sharded backend: the same tiny kernel
/// round (4 machines per shard, each sending one single-word message to
/// m + 1) driven through the resident workers' STEP barrier at a fixed
/// shard count. arg0 = shards.
class RingKernel final : public runtime::StepKernel {
 public:
  static std::string kernelName() { return "bench.ring"; }

  void step(const runtime::KernelCtx& ctx, runtime::WordRows& out) override {
    out.add((ctx.machine + 1) % ctx.numMachines, {ctx.machine});
  }
};

void BM_ShardRoundDispatch(benchmark::State& state) {
  using namespace mpcspan::runtime;
  const auto shards = static_cast<std::size_t>(state.range(0));
  const std::size_t machines = 4 * shards;
  RoundEngine eng(EngineConfig{machines, 1, shards},
                  MpcTopology(64));
  const KernelId k = ensureKernel<RingKernel>(eng);
  for (auto _ : state) eng.step(k);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ShardRoundDispatch)->Arg(4)->Arg(2)->Unit(benchmark::kMicrosecond);

/// One full growth-iteration wave (both find-min supersteps) through the
/// registered kernels on the resident workers at a fixed shard count.
/// The simulated ledger matches the in-process engine (pinned by
/// test_golden); this measures the dispatch cost. arg0 = shards.
void BM_IterationRoundDispatch(benchmark::State& state) {
  const auto shards = static_cast<std::size_t>(state.range(0));
  Rng rng(23);
  const Graph g = gnmRandom(400, 2000, rng, {WeightModel::kUniform, 12.0}, true);
  const std::size_t n = g.numVertices();
  std::vector<VertexId> ident(n);
  std::iota(ident.begin(), ident.end(), 0);
  const std::vector<char> sampled =
      HashCoinPolicy::draw(std::vector<char>(n, 1), 0.3, 23, 1);
  MpcSimulator sim(MpcConfig::forInput(4 * g.numEdges(), 0.6, 3.0),
                   /*threads=*/1, shards);
  for (auto _ : state)
    benchmark::DoNotOptimize(distIterationKernel(sim, g, ident, ident, sampled));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_IterationRoundDispatch)
    ->Arg(4)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);

/// The transport probe: exchange-heavy kernel rounds (every machine ships
/// one multi-word payload to every machine outside its own shard,
/// distSort-phase shaped traffic) at a fixed shard
/// count, cross-shard sections routed over the tcp loopback mesh. The
/// ledger and contents match the in-process engine (pinned by
/// test_peer_exchange); only where the bytes travel differs.
/// arg0 = shards (1 = the in-process reference).
class AllToAllKernel final : public runtime::StepKernel {
 public:
  static std::string kernelName() { return "bench.alltoall"; }

  void step(const runtime::KernelCtx& ctx, runtime::WordRows& out) override {
    const auto words = static_cast<std::size_t>(ctx.args[0]);
    std::vector<Word> pay(words);
    for (std::size_t i = 0; i < words; ++i) pay[i] = ctx.machine * 7919 + i;
    out.reserve(ctx.numMachines - 1, (ctx.numMachines - 1) * words);
    for (std::size_t d = 0; d < ctx.numMachines; ++d)
      if (d != ctx.machine) out.add(d, pay);
  }
};

void BM_CrossShardExchange(benchmark::State& state) {
  using namespace mpcspan::runtime;
  const auto shards = static_cast<std::size_t>(state.range(0));
  const std::size_t machines = 4 * shards;
  const std::size_t payloadWords = 256;
  RoundEngine eng(EngineConfig{machines, 1, shards},
                  MpcTopology(machines * payloadWords));
  const KernelId k = ensureKernel<AllToAllKernel>(eng);
  for (auto _ : state) eng.step(k, {payloadWords});
  state.SetLabel(shards == 1 ? "in-process" : "tcp-loopback");
  // Cross-shard words moved per round (the traffic whose routing is probed).
  const std::size_t crossWords =
      shards == 1 ? 0 : machines * (machines - 4) * payloadWords;
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(crossWords * sizeof(Word)));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CrossShardExchange)
    ->Arg(4)
    ->Arg(2)
    ->Arg(1)
    ->Unit(benchmark::kMicrosecond);

void BM_VerifyPairStretch(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(19);
  const Graph g = gnmRandom(n, 8 * n, rng, {WeightModel::kUniform, 10.0}, true);
  const auto r = buildBaswanaSen(g, {.k = 3, .seed = 5});
  for (auto _ : state)
    benchmark::DoNotOptimize(measurePairStretch(g, r.edges, 2, 1));
}
BENCHMARK(BM_VerifyPairStretch)->Arg(1 << 10);

}  // namespace

BENCHMARK_MAIN();
