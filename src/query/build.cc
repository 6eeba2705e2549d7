#include "query/build.hpp"

#include <algorithm>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <utility>

#include "graph/connectivity.hpp"
#include "graph/io.hpp"
#include "mpc/dist_spanner.hpp"
#include "mpc/simulator.hpp"
#include "runtime/thread_pool.hpp"
#include "spanner/baswana_sen.hpp"
#include "spanner/cluster_merging.hpp"
#include "spanner/sqrtk.hpp"
#include "spanner/tradeoff.hpp"
#include "spanner/unweighted_fast.hpp"

namespace mpcspan::query {

void BuildPlan::validate() const {
  const auto check = [](bool ok, const char* field, auto value,
                        const std::string& range) {
    if (!ok)
      throw std::invalid_argument("build plan: " + std::string(field) + " = " +
                                  std::to_string(value) + " is outside " +
                                  range);
  };
  if (("|" + std::string(kSpannerAlgos) + "|").find("|" + algo + "|") ==
      std::string::npos)
    throw std::invalid_argument("build plan: unknown algo '" + algo +
                                "' (want " + kSpannerAlgos + ")");
  check(k >= 1 && k <= kMaxK, "k", k, "[1, " + std::to_string(kMaxK) + "]");
  check(t <= kMaxT, "t", t, "[0, " + std::to_string(kMaxT) + "]");
  check(gamma > 0 && gamma <= 1, "gamma", gamma, "(0, 1]");
  check(sketchK >= 1 && sketchK <= kMaxSketchK, "sketchK", sketchK,
        "[1, " + std::to_string(kMaxSketchK) + "]");
  const std::string lanes = "[0, " + std::to_string(runtime::kMaxThreads) + "]";
  check(threads <= runtime::kMaxThreads, "threads", threads, lanes);
  check(shards <= runtime::kMaxThreads, "shards", shards, lanes);
}

SpannerResult buildSpanner(const Graph& g, const BuildPlan& plan) {
  plan.validate();
  const std::string& algo = plan.algo;
  if (algo == "baswana-sen")
    return buildBaswanaSen(g, {.k = plan.k, .seed = plan.seed});
  if (algo == "cluster-merging")
    return buildClusterMergingSpanner(g, {.k = plan.k, .seed = plan.seed});
  if (algo == "sqrtk") return buildSqrtKSpanner(g, {.k = plan.k, .seed = plan.seed});
  if (algo == "tradeoff")
    return buildTradeoffSpanner(g, {.k = plan.k, .t = plan.t, .seed = plan.seed});
  if (algo == "unweighted-fast")
    return buildUnweightedFastSpanner(
               g, {.k = plan.k, .gamma = plan.gamma, .seed = plan.seed})
        .spanner;
  if (algo == "dist-baswana-sen" || algo == "dist-tradeoff") {
    MpcSimulator sim(
        MpcConfig::forInput(8 * std::max<std::size_t>(g.numEdges(), 8),
                            plan.gamma, 3.0),
        plan.threads, plan.shards);
    return algo == "dist-tradeoff"
               ? buildDistributedTradeoff(sim, g, plan.k, plan.t, plan.seed)
               : buildDistributedBaswanaSen(sim, g, plan.k, plan.seed);
  }
  throw std::logic_error("buildSpanner: no builder for algo " + algo);
}

QueryArtifact buildArtifact(const Graph& g, const BuildPlan& plan) {
  SpannerResult r = buildSpanner(g, plan);
  // dist-tradeoff stamps the theoretical k^s, not its certified bound.
  const double stretch = r.algorithm == "dist-tradeoff"
                             ? tradeoffTheoreticalStretch(r.k, r.t)
                             : r.stretchBound;
  const Graph h = subgraph(g, r.edges);
  const SketchParams sp{plan.sketchK, plan.sketchSeed};
  DistanceSketches sketches(h, sp);
  const double composed = sketches.stretchBound() * stretch;
  return QueryArtifact{g,
                       std::move(r.edges),
                       std::move(r.algorithm),
                       r.k,
                       r.t,
                       stretch,
                       sp,
                       composed,
                       std::move(sketches),
                       plan.cacheSources,
                       r.simulatorRounds,
                       r.wordsMoved};
}

namespace {
constexpr std::uint32_t kArtifactMagic = 0x4151504du;  // "MPQA" little-endian
constexpr std::uint32_t kArtifactVersion = 1;

/// Bytes between the read position and the end of `in`; unbounded when
/// the stream cannot seek.
std::uint64_t bytesLeft(std::istream& in) {
  constexpr std::uint64_t kUnbounded = std::numeric_limits<std::uint64_t>::max();
  const std::istream::pos_type at = in.tellg();
  if (at < 0) return kUnbounded;
  in.seekg(0, std::ios::end);
  const std::istream::pos_type end = in.tellg();
  in.seekg(at);
  if (end < at || !in) return kUnbounded;
  return static_cast<std::uint64_t>(end - at);
}
}  // namespace

void saveArtifact(const QueryArtifact& a, std::ostream& out) {
  BinWriter w(out);
  w.u32(kArtifactMagic);
  w.u32(kArtifactVersion);

  writeGraphBinary(a.graph, out);

  w.str(a.algorithm);
  w.u32(a.k);
  w.u32(a.t);
  w.f64(a.spannerStretch);
  w.u32Vec(a.spannerEdges);

  w.u32(a.sketchParams.k);
  w.u64(a.sketchParams.seed);
  w.f64(a.composedStretch);
  const SketchTables t = a.sketches.exportTables();
  w.u32(t.k);
  w.u64(t.n);
  for (const auto& row : t.pivotDist) w.f64Vec(row);
  for (const auto& row : t.pivot) w.u32Vec(row);
  w.u64Vec(t.bunchStart);
  w.u32Vec(t.bunchW);
  w.f64Vec(t.bunchDist);
  w.u32Vec(t.levelSizes);
  w.u64(t.relaxations);

  w.u64(a.cacheSources);
  w.u64(a.buildRounds);
  w.u64(a.wordsMoved);
}

QueryArtifact loadArtifact(std::istream& in) {
  BinReader r(in, "query artifact");
  if (r.u32() != kArtifactMagic)
    r.fail("bad magic (not an mpcspan query artifact)");
  const std::uint32_t version = r.u32();
  if (version != kArtifactVersion)
    r.fail("unsupported version " + std::to_string(version));

  // A valid artifact holds at least 32 bytes per vertex after this point
  // (the sketch tables' k+1 >= 2 rows each of n f64 pivot distances and n
  // u32 pivots, and n+1 u64 bunch offsets), so the graph's CSR is never
  // sized by a vertex count the stream cannot back.
  Graph graph = readGraphBinary(in, bytesLeft(in) / 32);
  const std::size_t m = graph.numEdges();

  std::string algorithm = r.str(256);
  const std::uint32_t k = r.u32();
  const std::uint32_t t = r.u32();
  const double spannerStretch = r.f64();
  std::vector<EdgeId> spannerEdges = r.u32Vec();
  for (EdgeId e : spannerEdges)
    if (e >= m) r.fail("spanner edge id out of range");

  SketchParams sp;
  sp.k = r.u32();
  sp.seed = r.u64();
  const double composedStretch = r.f64();
  SketchTables tables;
  tables.k = r.u32();
  if (tables.k == 0 || tables.k > kMaxSketchK)
    r.fail("implausible sketch level count " + std::to_string(tables.k));
  tables.n = r.count();
  if (tables.n != graph.numVertices())
    r.fail("sketch vertex count disagrees with graph");
  tables.pivotDist.resize(tables.k + 1);
  for (auto& row : tables.pivotDist) row = r.f64Vec();
  tables.pivot.resize(tables.k + 1);
  for (auto& row : tables.pivot) row = r.u32Vec();
  tables.bunchStart = r.u64Vec();
  tables.bunchW = r.u32Vec();
  tables.bunchDist = r.f64Vec();
  tables.levelSizes = r.u32Vec();
  tables.relaxations = r.u64();

  const std::size_t cacheSources = static_cast<std::size_t>(r.count());
  const std::size_t buildRounds = static_cast<std::size_t>(r.u64());
  const std::size_t wordsMoved = static_cast<std::size_t>(r.u64());
  r.expectEof();

  // The adopting constructor validates every table invariant; surface its
  // rejection as a corrupt-artifact error. Nothing partial escapes: the
  // artifact is returned only after this succeeds.
  try {
    DistanceSketches sketches(std::move(tables));
    return QueryArtifact{std::move(graph),
                         std::move(spannerEdges),
                         std::move(algorithm),
                         k,
                         t,
                         spannerStretch,
                         sp,
                         composedStretch,
                         std::move(sketches),
                         cacheSources,
                         buildRounds,
                         wordsMoved};
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(std::string("query artifact: corrupt sketch tables: ") +
                             e.what());
  }
}

void saveArtifactFile(const QueryArtifact& a, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot open for write: " + path);
  saveArtifact(a, out);
  out.flush();
  if (!out) throw std::runtime_error("write failed: " + path);
}

QueryArtifact loadArtifactFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open for read: " + path);
  return loadArtifact(in);
}

QueryPlane makeQueryPlane(QueryArtifact a) {
  QueryPlane plane;
  plane.graph = std::make_shared<const Graph>(std::move(a.graph));
  plane.sketches =
      std::make_shared<const DistanceSketches>(std::move(a.sketches));

  plane.tiered = std::make_shared<TieredOracle>(
      std::make_shared<SketchDistanceProvider>(plane.sketches, a.composedStretch),
      std::make_shared<ExactDistanceProvider>(plane.graph));
  return plane;
}

}  // namespace mpcspan::query
