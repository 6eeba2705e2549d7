// mpcspan — command-line spanner builder.
//
// Reads a graph (edge-list file or generated family), runs the chosen
// spanner algorithm, reports the execution profile, optionally audits the
// stretch and writes the spanner as an edge list.
//
//   mpcspan --family gnm --n 10000 --deg 12 --weights uniform
//           --algo tradeoff --k 8 --t 0 --verify --out spanner.txt
//   mpcspan --input graph.txt --algo baswana-sen --k 4
//   mpcspan --algo dist-tradeoff --n 2000 --k 8 --shards 4 --threads 2
//
// Subcommands wire up the build-once / serve-many query plane (src/query):
//
//   mpcspan build-oracle --n 2000 --algo tradeoff --k 6 --out g.mpqa
//   mpcspan query --artifact g.mpqa --queries 20000 --threads 4
//
// The dist-* algorithms run end-to-end on the word-accurate MPC machine
// simulator; --threads sets the stepping-pool lanes and --shards the worker
// processes of the sharded runtime backend, resident workers exchanging
// over a loopback tcp mesh (0 = MPCSPAN_THREADS / MPCSPAN_SHARDS env
// defaults).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "graph/connectivity.hpp"
#include "graph/distance.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "query/audit.hpp"
#include "query/build.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/client.hpp"
#include "spanner/verify.hpp"
#include "util/args.hpp"

using namespace mpcspan;

namespace {

Graph loadGraphFile(const std::string& path, const std::string& format) {
  if (format == "mpcspan") return readEdgeListFile(path);
  if (format == "snap") return readSnapDimacsFile(path);
  if (format != "auto")
    throw std::invalid_argument("unknown --format: " + format +
                                " (want auto|mpcspan|snap)");
  // Sniff: mpcspan edge lists start with an "n <count>" header line.
  std::ifstream probe(path);
  if (!probe) throw std::runtime_error("cannot open for read: " + path);
  std::string line, tok;
  while (std::getline(probe, line)) {
    std::istringstream ss(line);
    if (!(ss >> tok)) continue;
    if (tok[0] == '#' || tok[0] == '%') continue;
    probe.close();
    return tok == "n" ? readEdgeListFile(path) : readSnapDimacsFile(path);
  }
  throw std::runtime_error("empty input file: " + path);
}

Graph generateGraph(const ArgParser& args) {
  const auto n = static_cast<std::size_t>(args.getInt("n"));
  const double deg = args.getDouble("deg");
  WeightSpec weights;
  const std::string wm = args.get("weights");
  if (wm == "uniform")
    weights = {WeightModel::kUniform, args.getDouble("wmax")};
  else if (wm == "integer")
    weights = {WeightModel::kInteger, args.getDouble("wmax")};
  else if (wm == "exponential")
    weights = {WeightModel::kExponential, args.getDouble("wmax")};
  else if (wm != "unit")
    throw std::invalid_argument("unknown --weights: " + wm);

  const std::string fam = args.get("family");
  Rng rng(static_cast<std::uint64_t>(args.getInt("seed")));
  for (Family f : {Family::kGnm, Family::kBarabasiAlbert, Family::kGrid,
                   Family::kGeometric, Family::kCycle, Family::kHypercube,
                   Family::kComplete})
    if (fam == familyName(f)) return makeFamily(f, n, deg, rng, weights);
  throw std::invalid_argument("unknown --family: " + fam);
}

Graph loadGraph(const ArgParser& args) {
  Graph g = args.has("input")
                ? loadGraphFile(args.get("input"), args.get("format"))
                : generateGraph(args);
  std::fprintf(stdout, "graph: n=%zu m=%zu %s\n", g.numVertices(), g.numEdges(),
               g.isUnweighted() ? "(unweighted)" : "(weighted)");
  return g;
}

/// The graph and build flags the main path and build-oracle share.
ArgParser& addBuildFlags(ArgParser& args) {
  return args.flag("input", "", "graph file (overrides --family)")
      .flag("format", "auto", "input format: auto|mpcspan|snap (SNAP/DIMACS)")
      .flag("family", "gnm",
            "generator: gnm|barabasi-albert|grid|geometric|cycle|hypercube|complete")
      .flag("n", "10000", "vertices (generated graphs)")
      .flag("deg", "12", "target average degree (generated graphs)")
      .flag("weights", "uniform", "unit|uniform|integer|exponential")
      .flag("wmax", "100", "max weight for non-unit models")
      .flag("algo", "tradeoff", query::kSpannerAlgos)
      .flag("k", "8", "stretch parameter")
      .flag("t", "0", "trade-off growth iterations (0 = log k)")
      .flag("gamma", "0.5",
            "machine-memory exponent (round conversion; unweighted-fast; "
            "dist-* simulator)")
      .flag("threads", "0", "stepping-pool lanes (0 = MPCSPAN_THREADS/hardware)")
      .flag("shards", "0",
            "simulator worker processes (0 = MPCSPAN_SHARDS, 1 = in-process; "
            ">1 forks resident workers on a loopback tcp mesh)")
      .flag("seed", "1", "random seed");
}

/// Reads back the build flags of addBuildFlags.
query::BuildPlan planOf(const ArgParser& args) {
  query::BuildPlan plan;
  plan.algo = args.get("algo");
  plan.k = static_cast<std::uint32_t>(args.getInt("k"));
  plan.t = static_cast<std::uint32_t>(args.getInt("t"));
  plan.seed = static_cast<std::uint64_t>(args.getInt("seed"));
  plan.gamma = args.getDouble("gamma");
  // Negative counts fall back to the defaults (0 = env var / hardware),
  // matching the env vars' own garbage handling.
  plan.threads = static_cast<std::size_t>(
      std::max<std::int64_t>(0, args.getInt("threads")));
  plan.shards = static_cast<std::size_t>(
      std::max<std::int64_t>(0, args.getInt("shards")));
  return plan;
}

// ---------------------------------------------------------------------------
// build-oracle: run the full pipeline (spanner + sketches) once and save the
// query artifact.

int runBuildOracle(int argc, const char* const* argv) {
  ArgParser args("mpcspan build-oracle",
                 "build a query artifact (spanner + TZ sketches) and save it");
  addBuildFlags(args)
      .flag("sketch-k", "3", "Thorup-Zwick levels (stretch 2k-1 on the spanner)")
      .flag("sketch-seed", "1", "sketch sampling seed")
      .flag("out", "", "artifact output path (required)");
  if (!args.parse(argc, argv)) {
    std::fprintf(stderr, "error: %s\n\n%s", args.error().c_str(), args.usage().c_str());
    return 2;
  }
  if (args.helpRequested()) {
    std::fputs(args.usage().c_str(), stdout);
    return 0;
  }
  try {
    if (args.get("out").empty())
      throw std::invalid_argument("build-oracle requires --out <path>");
    const Graph g = loadGraph(args);

    query::BuildPlan plan = planOf(args);
    plan.sketchK = static_cast<std::uint32_t>(args.getInt("sketch-k"));
    plan.sketchSeed = static_cast<std::uint64_t>(args.getInt("sketch-seed"));

    const auto t0 = std::chrono::steady_clock::now();
    const query::QueryArtifact a = query::buildArtifact(g, plan);
    const double buildS =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();

    std::fprintf(stdout,
                 "%s: spanner %zu edges (%.1f%%), k=%u, stretch <= %.1f\n",
                 a.algorithm.c_str(), a.spannerEdges.size(),
                 g.numEdges() ? 100.0 * static_cast<double>(a.spannerEdges.size()) /
                                    static_cast<double>(g.numEdges())
                              : 0.0,
                 a.k, a.spannerStretch);
    std::fprintf(stdout,
                 "sketches: k=%u, %zu bunch entries, composed stretch <= %.1f\n",
                 a.sketchParams.k, a.sketches.totalBunchEntries(),
                 a.composedStretch);
    if (a.buildRounds)
      std::fprintf(stdout, "simulator: %zu rounds, %zu words moved\n",
                   a.buildRounds, a.wordsMoved);
    std::fprintf(stdout, "build time: %.2f s\n", buildS);

    query::saveArtifactFile(a, args.get("out"));
    std::fprintf(stdout, "artifact written to %s\n", args.get("out").c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// query: reload an artifact and serve distance queries from it (no rebuild).

// --connect: the same subcommand as a network client of mpcspand. Keeps
// the local flags' meaning; --audit stays local-only (it needs the graph).
int runQueryConnected(const ArgParser& args) {
  const std::string where = args.get("connect");
  const auto colon = where.rfind(':');
  if (colon == std::string::npos || colon + 1 >= where.size())
    throw std::invalid_argument("--connect wants host:port, got '" + where +
                                "'");
  serve::ClientOptions copt;
  copt.host = where.substr(0, colon);
  copt.port = static_cast<std::uint16_t>(
      std::stoul(where.substr(colon + 1)));
  copt.seed = static_cast<std::uint64_t>(args.getInt("seed"));
  serve::ServeClient client(copt);

  if (!args.get("reload").empty()) {
    const std::uint64_t version = client.reload(args.get("reload"));
    std::fprintf(stdout, "reloaded: snapshot v%llu now serving\n",
                 static_cast<unsigned long long>(version));
    return 0;
  }
  if (args.getBool("stats")) {
    const serve::ServeStats s = client.stats();
    std::fprintf(stdout,
                 "snapshot v%llu, n=%llu\n"
                 "accepted %llu, active %llu, queries %llu (degraded %llu)\n"
                 "shed %llu, slow-drops %llu, malformed %llu, reloads ok %llu "
                 "failed %llu\n",
                 static_cast<unsigned long long>(s.snapshotVersion),
                 static_cast<unsigned long long>(s.numVertices),
                 static_cast<unsigned long long>(s.accepted),
                 static_cast<unsigned long long>(s.activeSessions),
                 static_cast<unsigned long long>(s.queries),
                 static_cast<unsigned long long>(s.degraded),
                 static_cast<unsigned long long>(s.shedQueueFull),
                 static_cast<unsigned long long>(s.slowClientDrops),
                 static_cast<unsigned long long>(s.malformedFrames),
                 static_cast<unsigned long long>(s.reloadsOk),
                 static_cast<unsigned long long>(s.reloadsFailed));
    std::fprintf(stdout, "\n%-14s %10s %10s %10s\n", "tier", "attempts",
                 "hits", "mean-us");
    for (const query::TierStats& t : s.tiers)
      std::fprintf(stdout, "%-14s %10llu %10llu %10.2f\n", t.name.c_str(),
                   static_cast<unsigned long long>(t.attempts),
                   static_cast<unsigned long long>(t.hits),
                   t.attempts ? static_cast<double>(t.nanos) / 1e3 /
                                    static_cast<double>(t.attempts)
                              : 0.0);
    return 0;
  }

  const std::int64_t deadlineArg = args.getInt("deadline-ms");
  const std::uint64_t deadlineMs =
      deadlineArg < 0 ? serve::kDeadlineDefault
                      : static_cast<std::uint64_t>(deadlineArg);

  if (args.has("u") || args.has("v")) {
    if (!(args.has("u") && args.has("v")))
      throw std::invalid_argument("--u and --v must be given together");
    const auto u = static_cast<VertexId>(args.getInt("u"));
    const auto v = static_cast<VertexId>(args.getInt("v"));
    const serve::WireAnswer ans = client.query(u, v, deadlineMs);
    std::fprintf(stdout,
                 "d(%u, %u) <= %.6g (tier %lld, stretch <= %.1f%s, "
                 "snapshot v%llu)\n",
                 u, v, ans.dist, static_cast<long long>(ans.tier),
                 ans.stretch, ans.degraded ? ", degraded" : "",
                 static_cast<unsigned long long>(ans.snapshotVersion));
    return 0;
  }

  const serve::HelloInfo info = client.serverInfo();
  if (info.numVertices == 0) throw std::runtime_error("server graph is empty");
  const auto q = static_cast<std::size_t>(
      std::max<std::int64_t>(1, args.getInt("queries")));
  Rng qrng(static_cast<std::uint64_t>(args.getInt("seed")));
  std::size_t degraded = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < q; ++i) {
    const auto u = static_cast<VertexId>(qrng.next(info.numVertices));
    const auto v = static_cast<VertexId>(qrng.next(info.numVertices));
    const serve::WireAnswer ans = client.query(u, v, deadlineMs);
    if (ans.degraded) ++degraded;
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  std::fprintf(stdout,
               "served %zu remote queries in %.3f s (%.0f qps), "
               "%zu degraded (%.1f%%)\n",
               q, elapsed, elapsed > 0 ? static_cast<double>(q) / elapsed : 0.0,
               degraded, 100.0 * static_cast<double>(degraded) /
                             static_cast<double>(q));
  return 0;
}

int runQuery(int argc, const char* const* argv) {
  ArgParser args("mpcspan query",
                 "serve distance queries from a saved artifact");
  args.flag("artifact", "", "artifact path (required unless --connect)")
      .flag("connect", "",
            "host:port of a running mpcspand; queries go over the wire "
            "instead of a locally loaded artifact")
      .flag("deadline-ms", "-1",
            "per-query deadline budget sent with --connect queries "
            "(-1 = server default)")
      .flag("stats", "false", "with --connect: print daemon counters and exit")
      .flag("reload", "",
            "with --connect: ask the daemon to hot-swap to this artifact path")
      .flag("queries", "10000", "random query count")
      .flag("seed", "1", "query rng seed")
      .flag("threads", "1", "client threads for the random-query run")
      .flag("audit", "false", "compare a sample of answers against exact Dijkstra")
      .flag("u", "", "single query source (with --v; skips the random run)")
      .flag("v", "", "single query target");
  if (!args.parse(argc, argv)) {
    std::fprintf(stderr, "error: %s\n\n%s", args.error().c_str(), args.usage().c_str());
    return 2;
  }
  if (args.helpRequested()) {
    std::fputs(args.usage().c_str(), stdout);
    return 0;
  }
  try {
    if (!args.get("connect").empty()) {
      if (args.getBool("audit"))
        throw std::invalid_argument(
            "--audit needs the graph and is local-only; drop --connect");
      return runQueryConnected(args);
    }
    if (args.get("artifact").empty())
      throw std::invalid_argument("query requires --artifact <path>");
    query::QueryArtifact a = query::loadArtifactFile(args.get("artifact"));
    const std::size_t n = a.graph.numVertices();
    const double composedStretch = a.composedStretch;
    std::fprintf(stdout,
                 "loaded artifact: n=%zu m=%zu, spanner %zu edges (%s, k=%u), "
                 "sketch k=%u, composed stretch <= %.1f\n",
                 n, a.graph.numEdges(), a.spannerEdges.size(),
                 a.algorithm.c_str(), a.k, a.sketchParams.k, a.composedStretch);
    if (n == 0) throw std::runtime_error("artifact graph is empty");

    // The plane takes the graph over; read it back through plane.graph.
    query::QueryPlane plane = query::makeQueryPlane(std::move(a));
    const Graph& g = *plane.graph;

    const auto clientThreads = static_cast<std::size_t>(
        std::max<std::int64_t>(1, args.getInt("threads")));
    runtime::ThreadPool pool(clientThreads);

    if (args.has("u") || args.has("v")) {
      if (!(args.has("u") && args.has("v")))
        throw std::invalid_argument("--u and --v must be given together");
      const auto u = static_cast<VertexId>(args.getInt("u"));
      const auto v = static_cast<VertexId>(args.getInt("v"));
      if (u >= n || v >= n)
        throw std::invalid_argument("--u/--v out of range [0, n)");
      const Weight est = plane.tiered->query(u, v);
      const Weight exact = dijkstraPair(g, u, v);
      std::fprintf(stdout, "d(%u, %u) <= %.6g (exact %.6g)\n", u, v, est, exact);
      return 0;
    }

    const auto q = static_cast<std::size_t>(
        std::max<std::int64_t>(1, args.getInt("queries")));
    Rng qrng(static_cast<std::uint64_t>(args.getInt("seed")));
    std::vector<query::QueryPair> pairs(q);
    for (auto& p : pairs)
      p = {static_cast<VertexId>(qrng.next(n)),
           static_cast<VertexId>(qrng.next(n))};
    std::vector<Weight> answers(q);

    const auto t0 = std::chrono::steady_clock::now();
    pool.parallelFor(q, [&](std::size_t i) {
      answers[i] = plane.tiered->query(pairs[i].first, pairs[i].second);
    });
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();

    std::fprintf(stdout, "\n%-14s %10s %10s %6s %9s\n", "tier", "attempts",
                 "hits", "hit%", "mean-us");
    for (const query::TierStats& s : plane.tiered->stats()) {
      const double hitPct =
          s.attempts ? 100.0 * static_cast<double>(s.hits) /
                           static_cast<double>(s.attempts)
                     : 0.0;
      const double meanUs =
          s.attempts ? static_cast<double>(s.nanos) / 1e3 /
                           static_cast<double>(s.attempts)
                     : 0.0;
      std::fprintf(stdout, "%-14s %10llu %10llu %5.1f%% %9.2f\n", s.name.c_str(),
                   static_cast<unsigned long long>(s.attempts),
                   static_cast<unsigned long long>(s.hits), hitPct, meanUs);
    }
    std::fprintf(stdout,
                 "\nserved %zu queries in %.3f s (%.0f qps, %zu client threads)\n",
                 q, elapsed,
                 elapsed > 0 ? static_cast<double>(q) / elapsed : 0.0,
                 clientThreads);

    if (args.getBool("audit")) {
      const query::AuditReport report =
          query::auditEnvelope(g, pairs, answers, composedStretch);
      for (const query::AuditViolation& bad : report.violations)
        std::fprintf(stdout,
                     "audit violation: u=%u v=%u got=%.9g exact=%.9g "
                     "(envelope [1, %.3f])\n",
                     bad.u, bad.v, bad.got, bad.exact, composedStretch);
      std::fprintf(stdout,
                   "audit: %zu pairs, mean ratio %.3f, max %.3f, violations %zu\n",
                   report.audited, report.meanRatio, report.maxRatio,
                   report.violations.size());
      if (!report.ok()) return 1;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && argv[1][0] != '-') {
    const std::string cmd = argv[1];
    if (cmd == "build-oracle") return runBuildOracle(argc - 1, argv + 1);
    if (cmd == "query") return runQuery(argc - 1, argv + 1);
    std::fprintf(stderr,
                 "error: unknown subcommand '%s' (want build-oracle or query)\n",
                 cmd.c_str());
    return 2;
  }
  ArgParser args("mpcspan", "spanner construction CLI (SPAA 2021 reproduction)");
  addBuildFlags(args)
      .flag("verify", "false", "audit stretch (sampled) before exiting")
      .flag("out", "", "write the spanner as an edge list to this path");

  if (!args.parse(argc, argv)) {
    std::fprintf(stderr, "error: %s\n\n%s", args.error().c_str(), args.usage().c_str());
    return 2;
  }
  if (args.helpRequested()) {
    std::fputs(args.usage().c_str(), stdout);
    return 0;
  }

  try {
    const Graph g = loadGraph(args);

    const query::BuildPlan plan = planOf(args);
    const SpannerResult r = query::buildSpanner(g, plan);
    std::fprintf(stdout,
                 "%s: %zu edges (%.1f%%), k=%u, %zu iterations / %zu epochs\n",
                 r.algorithm.c_str(), r.edges.size(),
                 g.numEdges()
                     ? 100.0 * static_cast<double>(r.edges.size()) /
                           static_cast<double>(g.numEdges())
                     : 0.0,
                 r.k, r.iterations, r.epochs);
    if (!r.simulator.empty())
      std::fprintf(stdout, "simulator: %s; %zu rounds, %zu words moved\n",
                   r.simulator.c_str(), r.simulatorRounds, r.wordsMoved);
    std::fprintf(stdout,
                 "rounds: %ld MPC (gamma=%.2f) | %ld near-linear | %ld clique\n",
                 r.cost.mpcRounds(plan.gamma), plan.gamma,
                 r.cost.nearLinearRounds(), r.cost.cliqueRounds());
    std::fprintf(stdout, "certified stretch <= %.1f; ledger: %s\n", r.stretchBound,
                 r.cost.ledgerString().c_str());

    if (args.getBool("verify")) {
      const StretchReport report = verifySpanner(
          g, r.edges, r.stretchBound, {.maxEdgeChecks = 4000, .pairSources = 4});
      std::fprintf(stdout,
                   "audit: spanning=%s maxEdgeStretch=%.2f maxPairStretch=%.2f "
                   "violations=%zu\n",
                   report.spanning ? "yes" : "NO", report.maxEdgeStretch,
                   report.maxPairStretch, report.violations);
      if (!report.spanning || report.violations > 0) return 1;
    }
    if (args.has("out")) {
      const Graph h = subgraph(g, r.edges);
      writeEdgeListFile(h, args.get("out"));
      std::fprintf(stdout, "spanner written to %s\n", args.get("out").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  return 0;
}
