// Shared helpers for the table/figure benchmark binaries. Each binary
// regenerates one of the paper's tables or figures (named in its header
// comment) and prints it as a markdown table.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "runtime/shard/sharded_engine.hpp"
#include "runtime/thread_pool.hpp"
#include "spanner/types.hpp"
#include "spanner/verify.hpp"
#include "util/table.hpp"

namespace mpcspan::bench {

/// Standard weighted G(n,m) workload (connected overlay).
inline Graph weightedGnm(std::size_t n, std::size_t m, std::uint64_t seed) {
  Rng rng(seed);
  return gnmRandom(n, m, rng, {WeightModel::kUniform, 100.0}, /*connected=*/true);
}

inline Graph unweightedGnm(std::size_t n, std::size_t m, std::uint64_t seed) {
  Rng rng(seed);
  return gnmRandom(n, m, rng, {}, /*connected=*/true);
}

/// Max pairwise stretch over `sources` Dijkstra sources (cheap audit).
inline double measuredStretch(const Graph& g, const SpannerResult& r,
                              std::size_t sources = 6) {
  return measurePairStretch(g, r.edges, sources, /*seed=*/12345);
}

/// |E_S| / (n^{1+1/k} * extra) — the size-bound constant.
inline double sizeConstant(const SpannerResult& r, double extra) {
  return r.sizeRatio(extra);
}

inline void printHeader(const char* id, const char* claim) {
  std::printf("\n##### %s\n# paper claim: %s\n", id, claim);
}

/// Machine-readable benchmark sink for the CI benchmark matrix: when the
/// MPCSPAN_BENCH_JSON env var names a path, every record() becomes one
/// object in that file's `results` array, stamped with the bench name and
/// the pool-lane / shard configuration the process ran under. Without the
/// env var the writer is inert, so interactive table output is unchanged.
class BenchJson {
 public:
  explicit BenchJson(std::string benchName) : bench_(std::move(benchName)) {
    if (const char* p = std::getenv("MPCSPAN_BENCH_JSON")) path_ = p;
  }

  void record(
      std::initializer_list<std::pair<const char*, double>> fields) {
    if (path_.empty()) return;
    std::string row = "    {";
    bool first = true;
    for (const auto& [key, value] : fields) {
      char buf[64];
      // Ledger counters (rounds, words) must survive exactly — they are the
      // cross-config bit-identity signal; only genuine reals get rounded.
      if (value == static_cast<double>(static_cast<long long>(value)))
        std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(value));
      else
        std::snprintf(buf, sizeof(buf), "%.6g", value);
      row += std::string(first ? "" : ", ") + "\"" + key + "\": " + buf;
      first = false;
    }
    row += "}";
    rows_.push_back(std::move(row));
  }

  ~BenchJson() {
    if (path_.empty() || rows_.empty()) return;
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (!f) return;
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"lanes\": %zu,\n  \"shards\": %zu,\n  \"results\": [\n",
                 bench_.c_str(), runtime::ThreadPool::defaultThreads(),
                 runtime::shard::ShardedEngine::defaultShards());
    for (std::size_t i = 0; i < rows_.size(); ++i)
      std::fprintf(f, "%s%s\n", rows_[i].c_str(),
                   i + 1 < rows_.size() ? "," : "");
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
  }

 private:
  std::string bench_;
  std::string path_;
  std::vector<std::string> rows_;
};

}  // namespace mpcspan::bench
