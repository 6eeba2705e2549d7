// End-to-end benchmark program: the two user paths of mpcspan on a graph
// whose spanner keeps a small fraction of its edges.
//
//   e2e build --config inproc|sharded --artifact PATH --seconds T
//             --min-builds N --gates 0|1
//       generate -> buildArtifact -> saveArtifactFile, repeated for at least
//       T seconds and N builds; then the compressive-regime guard and, with
//       --gates 1, the host-reference and other-engine equivalence gates.
//   e2e serve --mode floor|exact --artifact PATH --seconds T --setups N
//             --warmup W
//       N x (load + Server::start + first reply), then 4 closed-loop wire
//       clients: W seconds of warm-up, T measured; then the daemon-counter
//       check, a reload of the artifact and the answer audit.
//   Both take --seed S --trace 0|1 --workdir DIR.
//
// Every number comes from timing or counting calls into the library's
// public functions from this file; with --trace 1 those calls are also
// recorded as spans (trace.hpp) and the per-layer probes run. The last
// stdout line is "E2E_RESULT <json>" with the metrics, the checks that
// failed, and the sample counts; e2ebench/run.py turns it into the
// benchmark's result line.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.hpp"
#include "graph/connectivity.hpp"
#include "graph/distance.hpp"
#include "mpc/dist_iteration.hpp"
#include "mpc/dist_spanner.hpp"
#include "mpc/primitives.hpp"
#include "mpc/simulator.hpp"
#include "query/audit.hpp"
#include "query/build.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "spanner/engine.hpp"
#include "spanner/growth_kernel.hpp"
#include "spanner/tradeoff.hpp"
#include "spanner/verify.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

using namespace mpcspan;
using Clock = std::chrono::steady_clock;
namespace tr = e2e::trace;

namespace {

// The workload: one seeded G(n, m) graph with a Hamiltonian-cycle overlay
// (m + n edges), uniform weights below 100, the dist-tradeoff plan at k=8
// with 3-level sketches.
constexpr std::size_t kN = 20000;
constexpr std::size_t kM = 2000000;
constexpr std::uint32_t kK = 8;
constexpr std::uint32_t kSketchK = 3;
constexpr double kGamma = 0.5;

// A build keeping more than this share of the input edges is not in the
// compressive regime the benchmark is about; the run refuses it.
constexpr double kKeptCeiling = 0.20;

constexpr std::size_t kMaxLanes = 4;
constexpr std::size_t kClients = 4;
constexpr std::size_t kAuditPerClient = 16;
constexpr int kRequestTimeoutMs = 10000;
// A failed request enters the latency sample at the client's timeout, so it
// misses every latency limit.
constexpr double kFailedLatencyUs = kRequestTimeoutMs * 1e3;

// ---------------------------------------------------------------- results

struct Result {
  std::map<std::string, double> metrics;
  std::map<std::string, double> samples;
  std::map<std::string, std::string> info;
  std::vector<std::string> failedChecks;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void check(bool ok, const std::string& name, const std::string& detail) {
    std::printf("check %-28s %s  %s\n", name.c_str(), ok ? "ok" : "FAILED",
                detail.c_str());
    if (!ok) failedChecks.push_back(name + ": " + detail);
  }
};

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void printResult(const Result& r) {
  std::string out = "E2E_RESULT {\"metrics\": {";
  const char* sep = "";
  char buf[64];
  for (const auto& [k, v] : r.metrics) {
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : -1.0);
    out += sep + jsonString(k) + ": " + buf;
    sep = ", ";
  }
  out += "}, \"samples\": {";
  sep = "";
  for (const auto& [k, v] : r.samples) {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += sep + jsonString(k) + ": " + buf;
    sep = ", ";
  }
  out += "}, \"info\": {";
  sep = "";
  for (const auto& [k, v] : r.info) {
    out += sep + jsonString(k) + ": " + jsonString(v);
    sep = ", ";
  }
  out += "}, \"failed_checks\": [";
  sep = "";
  for (const std::string& f : r.failedChecks) {
    out += sep + jsonString(f);
    sep = ", ";
  }
  std::snprintf(buf, sizeof(buf), "], \"attempted\": %llu, \"failed\": %llu}",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
  out += buf;
  std::printf("%s\n", out.c_str());
}

// ---------------------------------------------------------------- helpers

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  return percentileSorted(xs, 0.5);
}

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double tvSeconds(const timeval& t) {
  return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
}

/// User+sys CPU of this process and of its reaped children (shard workers).
double cpuSeconds() {
  rusage self{}, kids{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &kids);
  return tvSeconds(self.ru_utime) + tvSeconds(self.ru_stime) +
         tvSeconds(kids.ru_utime) + tvSeconds(kids.ru_stime);
}

/// This process's max RSS plus that of its largest reaped child.
double peakRssMb() {
  rusage self{}, kids{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &kids);
  return static_cast<double>(self.ru_maxrss + kids.ru_maxrss) / 1024.0;
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

template <class T>
std::uint64_t hashBytes(std::uint64_t h, const std::vector<T>& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  h = mix64(h ^ v.size());
  const auto* p = reinterpret_cast<const unsigned char*>(v.data());
  const std::size_t bytes = v.size() * sizeof(T);
  std::size_t i = 0;
  for (; i + 8 <= bytes; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, p + i, 8);
    h = mix64(h ^ w);
  }
  std::uint64_t tail = 0;
  if (bytes > i) std::memcpy(&tail, p + i, bytes - i);
  return mix64(h ^ tail);
}

std::string hex(std::uint64_t h) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

std::uint64_t edgeHash(const std::vector<EdgeId>& edges) {
  return hashBytes(0x5eed, edges);
}

/// Digest of everything a sketch query reads (the serialized tables).
std::uint64_t sketchDigest(const DistanceSketches& s) {
  const SketchTables t = s.exportTables();
  std::uint64_t h = mix64(t.k ^ (t.n << 8) ^ (t.relaxations << 40));
  for (const auto& row : t.pivotDist) h = hashBytes(h, row);
  for (const auto& row : t.pivot) h = hashBytes(h, row);
  h = hashBytes(h, t.bunchStart);
  h = hashBytes(h, t.bunchW);
  h = hashBytes(h, t.bunchDist);
  return hashBytes(h, t.levelSizes);
}

struct EngineCfg {
  std::size_t threads = 1;
  std::size_t shards = 1;
  std::string name;
};

std::size_t lanes() {
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  return std::min(kMaxLanes, hw);
}

/// inproc: one process, `lanes` pool lanes. sharded: `lanes` resident
/// worker processes with one lane each (default shm ring, pipelined).
EngineCfg engineCfg(const std::string& config) {
  if (config == "sharded") return {1, lanes(), "sharded"};
  if (config == "inproc") return {lanes(), 1, "inproc"};
  throw std::invalid_argument("unknown engine config '" + config + "'");
}

query::BuildPlan planFor(std::uint64_t seed, const EngineCfg& cfg) {
  query::BuildPlan plan;
  plan.algo = "dist-tradeoff";
  plan.k = kK;
  plan.t = 0;
  plan.seed = seed;
  plan.sketchK = kSketchK;
  plan.sketchSeed = seed;
  plan.threads = cfg.threads;
  plan.shards = cfg.shards;
  plan.gamma = kGamma;
  return plan;
}

/// The simulator buildArtifact provisions for a dist-* plan.
MpcConfig simConfig(const Graph& g) {
  return MpcConfig::forInput(8 * std::max<std::size_t>(g.numEdges(), 8), kGamma,
                             3.0);
}

/// buildArtifact's t = 0 default: ceil(log2 k).
std::uint32_t effectiveT(std::uint32_t k) {
  return static_cast<std::uint32_t>(
      std::max(1.0, std::ceil(std::log2(static_cast<double>(std::max(k, 2u))))));
}

Graph generate(std::uint64_t seed) { return bench::weightedGnm(kN, kM, seed); }

// ---------------------------------------------------------------- builds

struct BuildRecord {
  std::uint64_t hash = 0;
  std::size_t edges = 0;
  std::size_t rounds = 0;
  std::size_t words = 0;
};

BuildRecord recordOf(const query::QueryArtifact& a) {
  return {edgeHash(a.spannerEdges), a.spannerEdges.size(), a.buildRounds,
          a.wordsMoved};
}

bool sameBuild(const BuildRecord& a, const BuildRecord& b) {
  return a.hash == b.hash && a.edges == b.edges && a.rounds == b.rounds &&
         a.words == b.words;
}

std::string describe(const BuildRecord& b) {
  return "edges=" + std::to_string(b.edges) + " hash=" + hex(b.hash) +
         " rounds=" + std::to_string(b.rounds) +
         " words=" + std::to_string(b.words);
}

/// The user path as one call: buildArtifact + saveArtifactFile (untraced).
query::QueryArtifact buildAndSave(const Graph& g, const query::BuildPlan& plan,
                                  const std::string& path, double* wallS,
                                  double* cpuS) {
  const double cpu0 = cpuSeconds();
  const auto t0 = Clock::now();
  query::QueryArtifact a = query::buildArtifact(g, plan);
  query::saveArtifactFile(a, path);
  *wallS = secondsSince(t0);
  *cpuS = cpuSeconds() - cpu0;
  return a;
}

/// The same artifact as buildAndSave, assembled from the public calls that
/// buildArtifact makes, each under its own span. Records the per-layer
/// build metrics.
query::QueryArtifact buildDecomposed(const Graph& g,
                                     const query::BuildPlan& plan,
                                     const std::string& path, Result& r) {
  const std::uint64_t id = tr::newId();
  tr::Span span("build", id);
  DistSpannerResult ds;
  std::size_t maxRoundWords = 0;
  r.metrics["mpc.spanner_s"] = tr::timed("mpc.spanner", id, [&] {
    MpcSimulator sim(simConfig(g), plan.threads, plan.shards);
    ds = buildDistributedTradeoff(sim, g, plan.k, plan.t, plan.seed);
    maxRoundWords = sim.maxRoundWords();
  });
  r.metrics["mpc.iterations"] = static_cast<double>(ds.iterations);
  r.metrics["runtime.rounds"] = static_cast<double>(ds.simulatorRounds);
  r.metrics["runtime.words_sent"] = static_cast<double>(ds.wordsMoved);
  r.metrics["runtime.max_round_words"] = static_cast<double>(maxRoundWords);

  Graph h;
  r.metrics["graph.subgraph_s"] =
      tr::timed("graph.subgraph", id, [&] { h = subgraph(g, ds.edges); });
  const SketchParams sp{plan.sketchK, plan.sketchSeed};
  std::optional<DistanceSketches> sketches;
  r.metrics["apsp.sketch_s"] =
      tr::timed("apsp.sketch", id, [&] { sketches.emplace(h, sp); });
  r.metrics["apsp.sketch_entries"] =
      static_cast<double>(sketches->totalBunchEntries());
  r.metrics["apsp.sketch_relaxations"] =
      static_cast<double>(sketches->preprocessingRelaxations());

  const std::uint32_t t = effectiveT(plan.k);
  const double stretch = tradeoffTheoreticalStretch(plan.k, t);
  const double composed = sketches->stretchBound() * stretch;
  query::QueryArtifact a{g,
                         std::move(ds.edges),
                         plan.algo,
                         plan.k,
                         t,
                         stretch,
                         sp,
                         composed,
                         std::move(*sketches),
                         plan.cacheSources,
                         ds.simulatorRounds,
                         ds.wordsMoved};
  r.metrics["query.save_s"] =
      tr::timed("query.save", id, [&] { query::saveArtifactFile(a, path); });
  r.metrics["query.artifact_mb"] =
      static_cast<double>(std::filesystem::file_size(path)) / 1e6;
  r.metrics["build.decomposed_s"] = span.elapsedS();
  return a;
}

/// An untraced warm-up build (the process's first build pays for fresh
/// heap), then the traced decomposed build, then an untraced build to
/// compare it with. All three must produce the same spanner and ledger.
/// Records the tracing overhead and how much of build_s the decomposed
/// build's spans cover.
query::QueryArtifact tracedBuildTrio(const Graph& g,
                                     const query::BuildPlan& plan,
                                     const std::string& path, Result& r) {
  double warmS = 0, wallS = 0, cpuS = 0;
  const BuildRecord warm = recordOf(buildAndSave(g, plan, path, &warmS, &cpuS));
  query::QueryArtifact a = buildDecomposed(g, plan, path, r);
  const BuildRecord after = recordOf(buildAndSave(g, plan, path, &wallS, &cpuS));
  std::printf("untraced builds %.3f s (warm-up) and %.3f s, traced build %.3f s\n",
              warmS, wallS, r.metrics["build.decomposed_s"]);
  r.metrics["build_s"] = wallS;
  r.metrics["build_cpu_s"] = cpuS;
  r.check(sameBuild(warm, recordOf(a)) && sameBuild(after, recordOf(a)),
          "decomposed_build_identical", describe(recordOf(a)));
  r.attempted += 3;
  r.samples["builds"] = 3;
  const double covered = r.metrics["mpc.spanner_s"] +
                         r.metrics["graph.subgraph_s"] +
                         r.metrics["apsp.sketch_s"] + r.metrics["query.save_s"];
  r.metrics["trace.build_coverage"] = covered / wallS;
  r.metrics["trace.build_overhead_frac"] =
      r.metrics["build.decomposed_s"] / wallS - 1.0;
  return a;
}

/// buildAndSave repeated for at least `seconds` and at least `minBuilds`
/// times; build_s and build_cpu_s are the medians. Every build must give the
/// same spanner and ledger. Returns the last artifact.
query::QueryArtifact timedBuilds(const Graph& g, const query::BuildPlan& plan,
                                 const std::string& path, double seconds,
                                 std::size_t minBuilds, Result& r) {
  std::optional<query::QueryArtifact> last;
  std::optional<BuildRecord> first;
  std::vector<double> walls, cpus;
  const auto t0 = Clock::now();
  while (walls.size() < minBuilds || secondsSince(t0) < seconds) {
    double wallS = 0, cpuS = 0;
    last.reset();
    last.emplace(buildAndSave(g, plan, path, &wallS, &cpuS));
    walls.push_back(wallS);
    cpus.push_back(cpuS);
    ++r.attempted;
    const BuildRecord rec = recordOf(*last);
    std::printf("build %zu: %.3f s wall, %.3f s cpu, %s\n", walls.size(), wallS,
                cpuS, describe(rec).c_str());
    if (!first) first = rec;
    if (!sameBuild(rec, *first)) {
      ++r.failed;
      r.check(false, "builds_repeat", describe(rec));
    }
  }
  r.metrics["build_s"] = median(walls);
  r.metrics["build_cpu_s"] = median(cpus);
  r.samples["builds"] = static_cast<double>(walls.size());
  return std::move(*last);
}

/// Kept fraction and size constant of a build, refused above the ceiling.
void compressiveGuard(const Graph& g, const query::QueryArtifact& a, Result& r) {
  const double kept = static_cast<double>(a.spannerEdges.size()) /
                      static_cast<double>(g.numEdges());
  const double sizeConst =
      static_cast<double>(a.spannerEdges.size()) /
      std::pow(static_cast<double>(g.numVertices()), 1.0 + 1.0 / a.k);
  r.metrics["spanner.kept_frac"] = kept;
  r.metrics["spanner.size_const"] = sizeConst;
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "kept %zu of %zu edges (%.4f, ceiling %.2f), size constant "
                "|E_S|/n^(1+1/k) = %.4f",
                a.spannerEdges.size(), g.numEdges(), kept, kKeptCeiling,
                sizeConst);
  r.check(kept <= kKeptCeiling, "compressive_regime", buf);
}

/// The host reference: buildTradeoffSpanner on the same problem must give
/// the same edge set.
void hostReferenceGate(const Graph& g, const query::BuildPlan& plan,
                       const BuildRecord& built, Result& r) {
  SpannerResult host;
  r.metrics["spanner.host_s"] = tr::timed("spanner.host", 0, [&] {
    host = buildTradeoffSpanner(g, {plan.k, plan.t, plan.seed});
  });
  r.check(edgeHash(host.edges) == built.hash, "host_spanner_identical",
          "host hash=" + hex(edgeHash(host.edges)));
}

/// The other engine configuration must reproduce the spanner and ledger.
void otherEngineGate(const Graph& g, const query::BuildPlan& plan,
                     const EngineCfg& other, const BuildRecord& built,
                     Result& r) {
  BuildRecord rec;
  tr::timed("gate.other_engine", 0, [&] {
    MpcSimulator sim(simConfig(g), other.threads, other.shards);
    const DistSpannerResult ds =
        buildDistributedTradeoff(sim, g, plan.k, plan.t, plan.seed);
    rec = {edgeHash(ds.edges), ds.edges.size(), ds.simulatorRounds,
           ds.wordsMoved};
  });
  r.check(sameBuild(rec, built), "engine_" + other.name + "_identical",
          describe(rec));
}

/// Identity of an artifact's contents, compared across the build and serve
/// processes: a reloaded artifact must match the one that was built.
void describeArtifact(const query::QueryArtifact& a, Result& r) {
  r.info["artifact.edge_hash"] = hex(edgeHash(a.spannerEdges));
  r.info["artifact.rounds"] = std::to_string(a.buildRounds);
  r.info["artifact.words"] = std::to_string(a.wordsMoved);
  r.info["artifact.sketch_digest"] = hex(sketchDigest(a.sketches));
  r.info["artifact.graph_digest"] = hex(hashBytes(0x9a9, a.graph.edges()));
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", a.composedStretch);
  r.info["artifact.composed_stretch"] = buf;
}

// Stateless orderings for the primitive probes (they cross into the shard
// workers by type, like the library's own).
struct CandOrder {
  static constexpr std::size_t kPackedKeyWord = 0;
  bool operator()(const CandTuple& a, const CandTuple& b) const {
    if (a.key != b.key) return a.key < b.key;
    return betterCand(a, b);
  }
};
struct CandKeyOf {
  std::uint64_t operator()(const CandTuple& c) const { return c.key; }
};
struct CandBetterOf {
  bool operator()(const CandTuple& a, const CandTuple& b) const {
    return betterCand(a, b);
  }
};
struct WordLess {
  bool operator()(std::uint64_t a, std::uint64_t b) const { return a < b; }
};

/// Per-layer probes of the build path under the workload's engine config:
/// the simulator start (the worker fork when sharded), one growth
/// iteration kernel on the first-iteration state, and the two primitives
/// on that iteration's growth tuples.
void buildProbes(const Graph& g, const query::BuildPlan& plan,
                 const query::QueryArtifact& a, Result& r) {
  tr::timed("spanner.stretch_audit", 0, [&] {
    r.metrics["spanner.stretch_max"] =
        measurePairStretch(g, a.spannerEdges, /*sources=*/4, plan.seed);
  });

  const auto t0 = Clock::now();
  MpcSimulator sim(simConfig(g), plan.threads, plan.shards);
  {
    tr::Span s("runtime.shard_start", 0);
    std::vector<std::uint64_t> tiny(sim.numMachines(), 1);
    DistVector<std::uint64_t> dv(sim, tiny);
    distSort(dv, WordLess{});
  }
  r.metrics["runtime.shard_start_s"] = secondsSince(t0);

  const std::size_t n = g.numVertices();
  std::vector<VertexId> identity(n);
  std::iota(identity.begin(), identity.end(), VertexId{0});
  const std::vector<char> active(n, 1);
  const double p = std::pow(static_cast<double>(n), -1.0 / plan.k);
  const std::vector<char> sampled =
      HashCoinPolicy::draw(active, p, plan.seed, /*drawKey=*/0);

  r.metrics["mpc.iter_kernel_s"] = tr::timed("mpc.iter_kernel", 0, [&] {
    (void)distIterationKernel(sim, g, identity, identity, sampled);
  });

  const std::vector<CandTuple> cands = buildCandidates(
      g, identity, identity, sampled, nullptr, &sim.engine().pool());
  r.metrics["mpc.growth_tuples"] = static_cast<double>(cands.size());
  DistVector<CandTuple> dv(sim, cands);
  r.metrics["mpc.distsort_s"] =
      tr::timed("mpc.distsort", 0, [&] { distSort(dv, CandOrder{}); });
  r.metrics["mpc.segmin_s"] = tr::timed("mpc.segmin", 0, [&] {
    (void)segmentedMinSorted(dv, CandKeyOf{}, CandBetterOf{});
  });
}

// ---------------------------------------------------------------- serving

/// Client c's query pairs: uniform over vertex pairs with u != v, from the
/// seed alone.
class PairStream {
 public:
  PairStream(std::uint64_t seed, std::size_t client)
      : rng_(mix64(seed * 0x100 + client)) {}
  query::QueryPair next() {
    const auto u = static_cast<VertexId>(rng_.next(kN));
    auto v = static_cast<VertexId>(rng_.next(kN - 1));
    if (v >= u) ++v;
    return {u, v};
  }

 private:
  Rng rng_;
};

struct ServerHandle {
  std::unique_ptr<serve::Server> server;
  double startS = 0;  // load + Server::start
  double setupS = 0;  // ... up to the first reply
};

ServerHandle startServer(const std::string& artifact, std::uint64_t deadline) {
  ServerHandle h;
  const std::uint64_t id = tr::newId();
  tr::Span span("serve.setup", id);
  {
    tr::Span s("serve.start", id);
    serve::ServerOptions opts;
    opts.artifactPath = artifact;
    opts.sessionThreads = kClients;
    h.server = std::make_unique<serve::Server>(opts);
    h.server->start();
    h.startS = s.elapsedS();
  }
  {
    tr::Span s("serve.first_reply", id);
    serve::ClientOptions copt;
    copt.port = h.server->port();
    copt.maxRetries = 0;
    copt.requestTimeoutMs = kRequestTimeoutMs;
    serve::ServeClient probe(copt);
    (void)probe.query(0, 1, deadline);
  }
  h.setupS = span.elapsedS();
  return h;
}

struct LoadResult {
  // Timed window, cut in one-second slices: latencies (failures at
  // kFailedLatencyUs) and answered requests per slice.
  std::vector<std::vector<double>> sliceLatUs;
  std::vector<std::uint64_t> sliceOk;
  std::uint64_t windowOk = 0;
  std::uint64_t windowFailed = 0;
  std::uint64_t windowDegraded = 0;
  double windowStretchSum = 0;
  std::uint64_t issued = 0;
  std::uint64_t failedTotal = 0;
  double okLatSumUs = 0;  // every answered request, warm-up included
  double windowS = 0;
  std::vector<query::QueryPair> auditPairs;
  std::vector<Weight> auditGot;
  std::vector<double> auditStretch;
};

/// kClients closed-loop clients, each on its own connection, sending its
/// PairStream. Requests started in the window after `warmupS` are measured;
/// a ServeError counts as a failure at kFailedLatencyUs and the client
/// redials. With `traceSecondHalf`, the second half of the window records
/// one span per query.
LoadResult runClients(std::uint16_t port, std::uint64_t seed,
                      std::uint64_t deadline, double warmupS, double windowS,
                      bool traceSecondHalf) {
  std::vector<LoadResult> per(kClients);
  std::atomic<bool> stop{false};
  const auto t0 = Clock::now();
  const auto toDur = [](double s) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(s));
  };
  const auto w0 = t0 + toDur(warmupS);
  const auto w1 = w0 + toDur(windowS);
  const std::size_t slices =
      std::max<std::size_t>(1, static_cast<std::size_t>(std::lround(windowS)));
  const std::size_t firstTraced = traceSecondHalf ? slices / 2 : slices;

  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      LoadResult& r = per[c];
      serve::ClientOptions copt;
      copt.port = port;
      copt.maxRetries = 0;
      copt.requestTimeoutMs = kRequestTimeoutMs;
      copt.seed = seed + c;
      serve::ServeClient client(copt);
      PairStream pairs(seed, c);
      r.sliceLatUs.resize(slices);
      r.sliceOk.resize(slices, 0);
      while (!stop.load(std::memory_order_relaxed)) {
        const auto [u, v] = pairs.next();
        const auto s0 = Clock::now();
        const bool inWindow = s0 >= w0 && s0 < w1;
        const std::size_t slice =
            inWindow ? std::min(slices - 1,
                                static_cast<std::size_t>(
                                    std::chrono::duration<double>(s0 - w0).count()))
                     : 0;
        const bool traced = inWindow && slice >= firstTraced;
        bool ok = true;
        serve::WireAnswer ans;
        {
          std::optional<tr::Span> span;
          if (traced) span.emplace("serve.query", tr::newId());
          try {
            ans = client.query(u, v, deadline);
          } catch (const serve::ServeError&) {
            ok = false;
          }
        }
        const double us =
            std::chrono::duration<double, std::micro>(Clock::now() - s0).count();
        ++r.issued;
        if (!ok) ++r.failedTotal;
        if (ok) r.okLatSumUs += us;
        if (ok && r.auditPairs.size() < kAuditPerClient) {
          r.auditPairs.emplace_back(u, v);
          r.auditGot.push_back(ans.dist);
          r.auditStretch.push_back(ans.stretch);
        }
        if (!inWindow) continue;
        r.sliceLatUs[slice].push_back(ok ? us : kFailedLatencyUs);
        if (!ok) {
          ++r.windowFailed;
          continue;
        }
        ++r.windowOk;
        ++r.sliceOk[slice];
        if (ans.degraded) ++r.windowDegraded;
        r.windowStretchSum += ans.stretch;
      }
    });
  }
  std::this_thread::sleep_until(w1);
  stop.store(true);
  for (std::thread& t : threads) t.join();

  LoadResult all;
  all.windowS = windowS;
  all.sliceLatUs.resize(slices);
  all.sliceOk.resize(slices, 0);
  for (const LoadResult& r : per) {
    for (std::size_t i = 0; i < slices; ++i) {
      all.sliceLatUs[i].insert(all.sliceLatUs[i].end(), r.sliceLatUs[i].begin(),
                               r.sliceLatUs[i].end());
      all.sliceOk[i] += r.sliceOk[i];
    }
    all.windowOk += r.windowOk;
    all.windowFailed += r.windowFailed;
    all.windowDegraded += r.windowDegraded;
    all.windowStretchSum += r.windowStretchSum;
    all.issued += r.issued;
    all.failedTotal += r.failedTotal;
    all.okLatSumUs += r.okLatSumUs;
    all.auditPairs.insert(all.auditPairs.end(), r.auditPairs.begin(),
                          r.auditPairs.end());
    all.auditGot.insert(all.auditGot.end(), r.auditGot.begin(), r.auditGot.end());
    all.auditStretch.insert(all.auditStretch.end(), r.auditStretch.begin(),
                            r.auditStretch.end());
  }
  return all;
}

/// Every audited answer must lie within [1, its reply's certified stretch]
/// of exact Dijkstra on the input graph.
void auditGate(const Graph& g, const LoadResult& load, Result& r) {
  const std::size_t total = load.auditPairs.size();
  std::vector<std::size_t> violations(kClients, 0), audited(kClients, 0);
  std::vector<double> worst(kClients, 0.0);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = t; i < total; i += kClients) {
        const query::AuditReport rep = query::auditEnvelope(
            g, std::span(&load.auditPairs[i], 1), std::span(&load.auditGot[i], 1),
            load.auditStretch[i], 1);
        audited[t] += rep.audited;
        violations[t] += rep.violations.size();
        worst[t] = std::max(worst[t], rep.maxRatio);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const std::size_t nAudited = std::accumulate(audited.begin(), audited.end(), 0ul);
  const std::size_t nBad = std::accumulate(violations.begin(), violations.end(), 0ul);
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%zu answers audited, %zu outside, max ratio %.4f",
                nAudited, nBad, *std::max_element(worst.begin(), worst.end()));
  r.samples["audited_answers"] = static_cast<double>(nAudited);
  r.check(nBad == 0 && nAudited >= total / 2 && nAudited > 0, "served_answers_audit",
          buf);
}

/// In-process probes of the serve path on the loaded artifact: the query
/// plane, the sketch floor, the budgeted ladder and single-pair Dijkstra,
/// each on the workload's own pairs from one thread.
void serveProbes(const query::QueryArtifact& a, std::uint64_t seed,
                 std::uint64_t deadline, Result& r) {
  std::optional<query::QueryPlane> plane;
  r.metrics["query.plane_s"] =
      tr::timed("query.plane", 0, [&] { plane.emplace(query::makeQueryPlane(a)); });

  // The clients' own pairs, interleaved: 20000 for the cheap calls, the
  // first 64 for the ones that run a Dijkstra each.
  const bool atFloor = deadline == 0;
  const std::size_t cheap = 20000, costly = 64;
  std::vector<PairStream> streams;
  for (std::size_t c = 0; c < kClients; ++c) streams.emplace_back(seed, c);
  std::vector<query::QueryPair> pairs;
  for (std::size_t i = 0; i < cheap; ++i)
    pairs.push_back(streams[i % kClients].next());

  std::vector<double> us;
  const auto timeEach = [&](const char* name, std::size_t count,
                            const std::function<void(const query::QueryPair&)>& fn) {
    us.clear();
    for (std::size_t i = 0; i < count; ++i) {
      tr::Span s(name, 0);
      fn(pairs[i]);
      us.push_back(s.elapsedS() * 1e6);
    }
    return median(us);
  };

  volatile double sink = 0;
  r.metrics["apsp.sketch_query_us_p50"] =
      timeEach("apsp.sketch_query", cheap, [&](const query::QueryPair& q) {
        sink = a.sketches.query(q.first, q.second);
      });
  r.metrics["graph.dijkstra_pair_us_p50"] =
      timeEach("graph.dijkstra_pair", costly, [&](const query::QueryPair& q) {
        sink = dijkstraPair(a.graph, q.first, q.second);
      });
  // Seed the ladder's per-tier latency estimates the way the daemon's
  // warm-up does, then time the budgeted walk at the workload's deadline.
  for (std::size_t i = 0; i < 2; ++i)
    (void)plane->tiered->queryBudgeted(pairs[i].first, pairs[i].second,
                                       util::DeadlineBudget(0));
  const int budgetMs = deadline == serve::kDeadlineDefault ? -1 : static_cast<int>(deadline);
  r.metrics["query.budgeted_us_p50"] = timeEach(
      "query.budgeted", atFloor ? cheap : costly, [&](const query::QueryPair& q) {
        sink = plane->tiered
                   ->queryBudgeted(q.first, q.second, util::DeadlineBudget(budgetMs))
                   .dist;
      });
  (void)sink;
}

/// Serves `artifact` and measures the wire path: `setupReps` daemon
/// start-ups (the last one stays up), warm-up, the timed window, then the
/// daemon-counter check, a reload of the artifact, and the answer audit.
void serveAndCheck(const std::string& artifact, std::uint64_t seed,
                   std::uint64_t deadline, std::size_t setupReps, double warmupS,
                   double windowS, bool traced, Result& r) {
  ServerHandle h;
  std::vector<double> setups, starts;
  for (std::size_t i = 0; i < setupReps; ++i) {
    h.server.reset();
    h = startServer(artifact, deadline);
    setups.push_back(h.setupS);
    starts.push_back(h.startS);
  }
  r.metrics["serve.setup_s"] = median(setups);
  r.metrics["serve.start_s"] = median(starts);
  r.samples["serve_setups"] = static_cast<double>(setups.size());

  const serve::ServeStats before = h.server->statsSnapshot();
  const LoadResult load = runClients(h.server->port(), seed, deadline,
                                     warmupS, windowS, traced);
  const serve::ServeStats after = h.server->statsSnapshot();
  r.metrics["peak_rss_mb"] = peakRssMb();
  h.server.reset();

  // Failure accounting: a failed or shed request still counts as attempted.
  r.attempted += load.windowOk + load.windowFailed;
  r.failed += load.windowFailed;
  r.samples["window_queries"] = static_cast<double>(load.windowOk + load.windowFailed);
  r.samples["issued_queries"] = static_cast<double>(load.issued);

  // In a traced run only the untraced first half feeds the latency figures.
  const std::size_t untraced = traced ? load.sliceOk.size() / 2 : load.sliceOk.size();
  // The per-second line shows how much the host drifts within one run.
  std::vector<double> lat;
  std::printf("window seconds (answered, p50_us, p99_us):");
  for (std::size_t i = 0; i < load.sliceOk.size(); ++i) {
    std::vector<double> sl = load.sliceLatUs[i];
    std::sort(sl.begin(), sl.end());
    std::printf("  %llu %.1f %.1f", static_cast<unsigned long long>(load.sliceOk[i]),
                percentileSorted(sl, 0.5), percentileSorted(sl, 0.99));
    if (i < untraced) lat.insert(lat.end(), sl.begin(), sl.end());
  }
  std::printf("\n");
  std::sort(lat.begin(), lat.end());
  r.metrics["qps"] = static_cast<double>(load.windowOk) / load.windowS;
  r.metrics["p50_us"] = percentileSorted(lat, 0.50);
  r.metrics["p99_us"] = percentileSorted(lat, 0.99);
  r.samples["latency_samples"] = static_cast<double>(lat.size());
  r.metrics["cert_stretch_mean"] =
      load.windowOk > 0 ? load.windowStretchSum / static_cast<double>(load.windowOk)
                        : 0.0;
  r.metrics["serve.degraded_frac"] =
      load.windowOk > 0 ? static_cast<double>(load.windowDegraded) /
                              static_cast<double>(load.windowOk)
                        : 0.0;

  // The daemon answered exactly what the clients sent (the setup probe of
  // this server included). A failed request may or may not have landed.
  const std::uint64_t served = after.queries - before.queries;
  const std::uint64_t answered = load.issued - load.failedTotal;
  const bool counted = load.failedTotal == 0
                           ? served == load.issued
                           : served >= answered && served <= load.issued;
  r.check(counted && before.queries == 1, "daemon_query_counter",
          "daemon " + std::to_string(after.queries) + ", clients " +
              std::to_string(load.issued + 1));

  r.metrics["serve.queries"] = static_cast<double>(after.queries);
  r.metrics["serve.shed"] = static_cast<double>(after.shedQueueFull);
  r.metrics["serve.malformed"] = static_cast<double>(after.malformedFrames);
  r.metrics["serve.slow_drops"] = static_cast<double>(after.slowClientDrops);
  r.metrics["serve.client_errors"] = static_cast<double>(load.failedTotal);
  // Wire time per query, paired on the same requests: the clients' mean
  // round trip minus the daemon's mean time inside its tiers.
  double tierNanos = 0;
  for (std::size_t i = 0; i < after.tiers.size() && i < before.tiers.size(); ++i)
    tierNanos += static_cast<double>(after.tiers[i].nanos - before.tiers[i].nanos);
  r.metrics["serve.wire_us_mean"] =
      answered > 0 && served > 0
          ? load.okLatSumUs / static_cast<double>(answered) -
                tierNanos / static_cast<double>(served) / 1e3
          : 0.0;
  const char* tierNames[] = {"sketch", "spanner-cache", "exact"};
  for (const char* name : tierNames) {
    double hitFrac = 0, meanUs = 0;
    for (std::size_t i = 0; i < after.tiers.size(); ++i) {
      if (after.tiers[i].name != name || i >= before.tiers.size()) continue;
      const double hits = static_cast<double>(after.tiers[i].hits - before.tiers[i].hits);
      const double tries =
          static_cast<double>(after.tiers[i].attempts - before.tiers[i].attempts);
      const double nanos =
          static_cast<double>(after.tiers[i].nanos - before.tiers[i].nanos);
      hitFrac = served > 0 ? hits / static_cast<double>(served) : 0.0;
      meanUs = tries > 0 ? nanos / tries / 1e3 : 0.0;
    }
    r.metrics[std::string("query.tier.") + name + ".hit_frac"] = hitFrac;
    r.metrics[std::string("query.tier.") + name + ".mean_us"] = meanUs;
  }

  const query::QueryArtifact loaded = [&] {
    tr::Span s("query.load", 0);
    query::QueryArtifact a = query::loadArtifactFile(artifact);
    r.metrics["query.load_s"] = s.elapsedS();
    return a;
  }();
  describeArtifact(loaded, r);
  auditGate(loaded.graph, load, r);

  if (traced) {
    std::vector<double> tracedLat;
    for (std::size_t i = untraced; i < load.sliceLatUs.size(); ++i)
      tracedLat.insert(tracedLat.end(), load.sliceLatUs[i].begin(),
                       load.sliceLatUs[i].end());
    r.metrics["trace.wire_overhead_frac"] =
        median(tracedLat) / r.metrics["p50_us"] - 1.0;
    serveProbes(loaded, seed, deadline, r);
    r.metrics["serve.wire_us_p50"] =
        r.metrics["p50_us"] - r.metrics["query.budgeted_us_p50"];
  }
}

// ---------------------------------------------------------------- commands

struct Args {
  std::string command;
  std::string config = "inproc";
  std::string mode = "floor";
  std::string artifact;
  std::string workdir = ".";
  std::uint64_t seed = 1;
  double seconds = 10;
  double warmup = 1;
  std::size_t setups = 3;
  std::size_t minBuilds = 3;
  bool gates = true;
  bool trace = false;
};

Graph setupGraph(std::uint64_t seed, std::size_t reps, Result& r) {
  Graph g;
  std::vector<double> gens;
  for (std::size_t i = 0; i < reps; ++i) {
    g = Graph();
    gens.push_back(tr::timed("graph.gen", 0, [&] { g = generate(seed); }));
  }
  r.metrics["graph.gen_s"] = median(gens);
  r.samples["setups"] = static_cast<double>(reps);
  std::printf("graph: n=%zu m=%zu (seed %llu), generation %.3f s\n",
              g.numVertices(), g.numEdges(),
              static_cast<unsigned long long>(seed), median(gens));
  return g;
}

/// generate -> (buildArtifact + saveArtifactFile) repeatedly -> gates.
void runBuild(const Args& args, Result& r) {
  const EngineCfg cfg = engineCfg(args.config);
  const query::BuildPlan plan = planFor(args.seed, cfg);
  std::printf("engine: %zu lane(s) x %zu shard(s)\n", cfg.threads, cfg.shards);

  const Graph g = setupGraph(args.seed, args.trace ? 1 : 3, r);
  r.metrics["setup_s"] = r.metrics["graph.gen_s"];
  const query::QueryArtifact a =
      args.trace ? tracedBuildTrio(g, plan, args.artifact, r)
                 : timedBuilds(g, plan, args.artifact, args.seconds,
                               args.minBuilds, r);
  r.metrics["peak_rss_mb"] = peakRssMb();
  describeArtifact(a, r);

  const BuildRecord rec = recordOf(a);
  compressiveGuard(g, a, r);
  if (args.gates || args.trace) hostReferenceGate(g, plan, rec, r);
  if (args.gates)
    otherEngineGate(g, plan,
                    engineCfg(args.config == "inproc" ? "sharded" : "inproc"),
                    rec, r);
  if (args.trace) buildProbes(g, plan, a, r);
}

/// load -> Server::start -> closed-loop clients -> audit.
void runServe(const Args& args, Result& r) {
  const bool atFloor = args.mode == "floor";
  if (!atFloor && args.mode != "exact")
    throw std::invalid_argument("unknown serve mode '" + args.mode + "'");
  const std::uint64_t deadline = atFloor ? 0 : serve::kDeadlineDefault;
  serveAndCheck(args.artifact, args.seed, deadline, args.setups, args.warmup,
                args.seconds, args.trace, r);
  r.metrics["setup_s"] = r.metrics["serve.setup_s"];
  std::printf("served at %s: %.0f qps, p50 %.2f us, p99 %.2f us over %.0f "
              "queries\n",
              atFloor ? "the sketch floor" : "the exact tier", r.metrics["qps"],
              r.metrics["p50_us"], r.metrics["p99_us"],
              r.samples["window_queries"]);
}

Args parseArgs(int argc, char** argv) {
  Args a;
  if (argc < 2) throw std::invalid_argument("usage: e2e build|serve [flags]");
  a.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--config") a.config = value;
    else if (flag == "--mode") a.mode = value;
    else if (flag == "--artifact") a.artifact = value;
    else if (flag == "--workdir") a.workdir = value;
    else if (flag == "--seed") a.seed = std::stoull(value);
    else if (flag == "--seconds") a.seconds = std::stod(value);
    else if (flag == "--warmup") a.warmup = std::stod(value);
    else if (flag == "--setups") a.setups = std::stoul(value);
    else if (flag == "--min-builds") a.minBuilds = std::stoul(value);
    else if (flag == "--gates") a.gates = value == "1";
    else if (flag == "--trace") a.trace = value == "1";
    else throw std::invalid_argument("unknown flag " + flag);
  }
  if (a.artifact.empty()) throw std::invalid_argument("--artifact is required");
  if (a.setups == 0 || a.minBuilds == 0)
    throw std::invalid_argument("--setups and --min-builds must be positive");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  Result r;
  Args args;
  try {
    args = parseArgs(argc, argv);
    tr::setEnabled(args.trace);
    r.info["build_type"] = E2E_BUILD_TYPE;
    r.info["hardware_threads"] = std::to_string(std::thread::hardware_concurrency());
    r.info["lanes"] = std::to_string(lanes());
    std::setvbuf(stdout, nullptr, _IOLBF, 0);
    if (args.command == "build") runBuild(args, r);
    else if (args.command == "serve") runServe(args, r);
    else throw std::invalid_argument("unknown command '" + args.command + "'");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e: %s\n", e.what());
    r.failedChecks.push_back(std::string("exception: ") + e.what());
  }
  if (args.trace) {
    std::printf("\nspans (self = total minus child spans):\n");
    tr::printTable(stdout);
    const std::string path = args.workdir + "/trace-" + args.command + "-" +
                             std::to_string(args.seed) + ".json";
    if (!tr::writeChrome(path, static_cast<int>(::getpid())))
      r.failedChecks.push_back("could not write " + path);
    r.info["chrome_trace"] = path;
  }
  printResult(r);
  return r.failedChecks.empty() ? 0 : 1;
}
