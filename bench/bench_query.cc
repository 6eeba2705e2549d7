// Query-path benchmark: per-tier latency and end-to-end tiered throughput.
//
// Builds one artifact (tradeoff spanner + TZ sketches), assembles the
// canonical serving stack (sketch -> exact), then measures:
//   - per-tier p50/p99 query latency, each tier driven directly,
//   - tiered qps + latency percentiles at 1 thread and at the default pool
//     width, concurrent clients hammering one TieredOracle.
//
// With MPCSPAN_BENCH_JSON set, emits one row per tier and one row per
// thread count (BENCH_query_path.json in the CI benchmark job).
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench/bench_common.hpp"
#include "query/build.hpp"
#include "runtime/thread_pool.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

using namespace mpcspan;
using Clock = std::chrono::steady_clock;

namespace {

double usSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

/// Client-side latency samples for `q` queries against one provider.
std::vector<double> sampleLatencies(const query::DistanceProvider& p,
                                    const std::vector<query::QueryPair>& pairs) {
  std::vector<double> us;
  us.reserve(pairs.size());
  double sink = 0;  // defeat dead-code elimination
  for (const auto& [u, v] : pairs) {
    const auto t0 = Clock::now();
    sink += p.query(u, v);
    us.push_back(usSince(t0));
  }
  if (sink == 42.5) std::printf("!");
  return us;
}

std::vector<query::QueryPair> randomPairs(std::size_t q, std::size_t n,
                                          std::uint64_t seed) {
  Rng rng(seed);
  std::vector<query::QueryPair> pairs(q);
  for (auto& p : pairs)
    p = {static_cast<VertexId>(rng.next(n)), static_cast<VertexId>(rng.next(n))};
  return pairs;
}

}  // namespace

int main() {
  bench::printHeader("query-path",
                     "build once, serve many: tier latency + tiered qps");
  bench::BenchJson json("query_path");

  const std::size_t n = 3000, m = 24000;
  const Graph g = bench::weightedGnm(n, m, /*seed=*/7);

  query::BuildPlan plan;
  plan.algo = "tradeoff";
  plan.k = 6;
  plan.sketchK = 3;
  const query::QueryArtifact a = query::buildArtifact(g, plan);
  std::printf("artifact: n=%zu m=%zu, spanner %zu edges, sketch %zu entries\n",
              n, m, a.spannerEdges.size(), a.sketches.totalBunchEntries());

  query::QueryPlane plane = query::makeQueryPlane(a);

  // --- Per-tier latency, each tier driven directly. ---
  struct TierRun {
    const char* label;
    const query::DistanceProvider* provider;
    std::vector<query::QueryPair> pairs;
  };
  std::vector<TierRun> runs;
  runs.push_back({"sketch", &plane.tiered->tier(0), randomPairs(20000, n, 11)});
  runs.push_back({"exact", &plane.tiered->tier(1), randomPairs(300, n, 13)});

  std::printf("\n%-14s %8s %10s %10s\n", "tier", "queries", "p50-us", "p99-us");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    auto us = sampleLatencies(*runs[i].provider, runs[i].pairs);
    const Summary s = summarize(us);
    std::printf("%-14s %8zu %10.2f %10.2f\n", runs[i].label, s.count, s.p50,
                s.p99);
    json.record({{"tier", static_cast<double>(i)},
                 {"queries", static_cast<double>(s.count)},
                 {"p50_us", s.p50},
                 {"p99_us", s.p99}});
  }

  // --- Tiered throughput at 1 and N client threads. ---
  const std::size_t q = 40000;
  const auto pairs = randomPairs(q, n, 17);
  std::printf("\n%-8s %10s %10s %10s\n", "threads", "qps", "p50-us", "p99-us");
  for (std::size_t threads :
       {std::size_t{1}, runtime::ThreadPool::defaultThreads()}) {
    runtime::ThreadPool clients(threads);
    std::vector<double> us(q);
    std::vector<Weight> answers(q);
    const auto t0 = Clock::now();
    clients.parallelFor(q, [&](std::size_t i) {
      const auto s0 = Clock::now();
      answers[i] = plane.tiered->query(pairs[i].first, pairs[i].second);
      us[i] = usSince(s0);
    });
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - t0).count();
    const Summary s = summarize(us);
    const double qps = elapsed > 0 ? static_cast<double>(q) / elapsed : 0.0;
    std::printf("%-8zu %10.0f %10.2f %10.2f\n", threads, qps, s.p50, s.p99);
    json.record({{"threads", static_cast<double>(threads)},
                 {"qps", qps},
                 {"p50_us", s.p50},
                 {"p99_us", s.p99}});
    if (threads == runtime::ThreadPool::defaultThreads()) break;
  }

  const auto stats = plane.tiered->stats();
  std::printf("\ntier hit mix:");
  for (const auto& s : stats)
    std::printf(" %s=%llu", s.name.c_str(),
                static_cast<unsigned long long>(s.hits));
  std::printf("\n");
  return 0;
}
