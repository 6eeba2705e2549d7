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
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
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
#include "util/deadline.hpp"

using namespace mpcspan;

namespace {

constexpr std::int64_t kMaxInt64 = std::numeric_limits<std::int64_t>::max();
constexpr std::int64_t kMaxVertexId = std::numeric_limits<VertexId>::max();
constexpr std::int64_t kMaxQueries = 1'000'000'000;  // one random run

/// Where the graph comes from, read from the flags before any graph is
/// generated or read.
struct GraphSource {
  std::string input;
  std::string format;
  Family family = Family::kGnm;
  std::size_t n = 0;
  double deg = 0;
  WeightSpec weights;
  std::uint64_t seed = 0;
};

GraphSource graphSourceOf(const ArgParser& args) {
  GraphSource src;
  src.input = args.get("input");
  src.format = args.get("format");
  if (src.format != "auto" && src.format != "mpcspan" && src.format != "snap")
    throw std::invalid_argument("unknown --format: " + src.format +
                                " (want auto|mpcspan|snap)");
  src.n = static_cast<std::size_t>(args.getInt("n", 1, kMaxVertexId));
  // A simple graph on n vertices has average degree at most n - 1.
  src.deg = args.getDouble("deg");
  if (!(src.deg >= 0 && src.deg <= static_cast<double>(src.n - 1)))
    throw std::invalid_argument("--deg: want an average degree in [0, n - 1] = [0, " +
                                std::to_string(src.n - 1) + "], got '" +
                                args.get("deg") + "'");
  const std::string wm = args.get("weights");
  if (wm == "uniform")
    src.weights = {WeightModel::kUniform, args.getDouble("wmax")};
  else if (wm == "integer")
    src.weights = {WeightModel::kInteger, args.getDouble("wmax")};
  else if (wm == "exponential")
    src.weights = {WeightModel::kExponential, args.getDouble("wmax")};
  else if (wm != "unit")
    throw std::invalid_argument("unknown --weights: " + wm);
  const std::string fam = args.get("family");
  bool known = false;
  for (Family f : {Family::kGnm, Family::kBarabasiAlbert, Family::kGrid,
                   Family::kGeometric, Family::kCycle, Family::kHypercube,
                   Family::kComplete})
    if (fam == familyName(f)) {
      src.family = f;
      known = true;
    }
  if (!known) throw std::invalid_argument("unknown --family: " + fam);
  src.seed = static_cast<std::uint64_t>(args.getInt("seed", 0, kMaxInt64));
  return src;
}

Graph loadGraphFile(const std::string& path, const std::string& format) {
  if (format == "mpcspan") return readEdgeListFile(path);
  if (format == "snap") return readSnapDimacsFile(path);
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

Graph loadGraph(const GraphSource& src) {
  Rng rng(src.seed);
  Graph g = !src.input.empty()
                ? loadGraphFile(src.input, src.format)
                : makeFamily(src.family, src.n, src.deg, rng, src.weights);
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

/// Reads back the build flags of addBuildFlags and validates the plan.
query::BuildPlan planOf(const ArgParser& args) {
  query::BuildPlan plan;
  plan.algo = args.get("algo");
  plan.k = static_cast<std::uint32_t>(args.getInt("k", 1, query::kMaxK));
  plan.t = static_cast<std::uint32_t>(args.getInt("t", 0, query::kMaxT));
  plan.seed = static_cast<std::uint64_t>(args.getInt("seed", 0, kMaxInt64));
  plan.gamma = args.getDouble("gamma");
  plan.threads = static_cast<std::size_t>(
      args.getInt("threads", 0, runtime::kMaxThreads));
  plan.shards = static_cast<std::size_t>(
      args.getInt("shards", 0, runtime::kMaxThreads));
  plan.validate();
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
    const GraphSource src = graphSourceOf(args);
    query::BuildPlan plan = planOf(args);
    plan.sketchK = static_cast<std::uint32_t>(
        args.getInt("sketch-k", 1, query::kMaxSketchK));
    plan.sketchSeed =
        static_cast<std::uint64_t>(args.getInt("sketch-seed", 0, kMaxInt64));
    const Graph g = loadGraph(src);

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
// query: answer distance queries from a saved artifact (no rebuild), in
// this process or over the wire from a running mpcspand (--connect). Both
// modes answer through one Ask and print through one path.

/// Answers (u, v) on client thread `thread`; over --connect every thread
/// has its own ServeClient. A local answer carries snapshotVersion 0 (a
/// daemon counts its snapshots from 1).
using Ask = std::function<serve::WireAnswer(std::size_t thread, VertexId u,
                                            VertexId v)>;

void printAnswer(VertexId u, VertexId v, const serve::WireAnswer& a) {
  std::fprintf(stdout, "d(%u, %u) <= %.6g (tier %lld, stretch <= %.1f%s", u, v,
               a.dist, static_cast<long long>(a.tier), a.stretch,
               a.degraded ? ", degraded" : "");
  if (a.snapshotVersion)
    std::fprintf(stdout, ", snapshot v%llu",
                 static_cast<unsigned long long>(a.snapshotVersion));
  std::fputs(")\n", stdout);
}

void printTiers(const std::vector<query::TierStats>& tiers) {
  std::fprintf(stdout, "\n%-14s %10s %10s %10s\n", "tier", "attempts",
               "hits", "mean-us");
  for (const query::TierStats& t : tiers)
    std::fprintf(stdout, "%-14s %10llu %10llu %10.2f\n", t.name.c_str(),
                 static_cast<unsigned long long>(t.attempts),
                 static_cast<unsigned long long>(t.hits),
                 t.attempts ? static_cast<double>(t.nanos) / 1e3 /
                                  static_cast<double>(t.attempts)
                            : 0.0);
}

struct RandomRun {
  std::size_t degraded = 0;
  double seconds = 0;
  // Kept only when asked for (--audit): pairs[i] was answered answers[i].
  std::vector<query::QueryPair> pairs;
  std::vector<Weight> answers;
};

/// The random-query run: `q` uniform pairs over [0, n) split over `threads`
/// client threads. Thread t takes queries t, t + threads, ... from its own
/// stream seeded `seed + t`, so one thread replays the single-threaded
/// stream. An error on any thread is rethrown once all have stopped.
RandomRun runRandomQueries(std::size_t q, std::size_t n, std::size_t threads,
                           std::uint64_t seed, const Ask& ask, bool keep) {
  RandomRun run;
  if (keep) {
    run.pairs.resize(q);
    run.answers.resize(q);
  }
  std::atomic<std::size_t> degraded{0};
  std::vector<std::exception_ptr> errors(threads);
  std::vector<std::thread> clients;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t t = 0; t < threads; ++t)
    clients.emplace_back([&, t] {
      try {
        Rng rng(seed + t);
        std::size_t mine = 0;
        for (std::size_t i = t; i < q; i += threads) {
          const auto u = static_cast<VertexId>(rng.next(n));
          const auto v = static_cast<VertexId>(rng.next(n));
          const serve::WireAnswer a = ask(t, u, v);
          if (a.degraded) ++mine;
          if (keep) {
            run.pairs[i] = {u, v};
            run.answers[i] = a.dist;
          }
        }
        degraded += mine;
      } catch (...) {
        errors[t] = std::current_exception();
      }
    });
  for (std::thread& c : clients) c.join();
  run.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
  run.degraded = degraded;
  return run;
}

/// --connect's daemon commands: --reload and --stats.
void runDaemonCommand(const ArgParser& args, serve::ServeClient& client) {
  if (!args.get("reload").empty()) {
    const std::uint64_t version = client.reload(args.get("reload"));
    std::fprintf(stdout, "reloaded: snapshot v%llu now serving\n",
                 static_cast<unsigned long long>(version));
    return;
  }
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
  printTiers(s.tiers);
}

int runQuery(int argc, const char* const* argv) {
  ArgParser args("mpcspan query",
                 "serve distance queries from a saved artifact");
  args.flag("artifact", "", "artifact path (required unless --connect)")
      .flag("connect", "",
            "host:port of a running mpcspand; queries go over the wire "
            "instead of a locally loaded artifact")
      .flag("deadline-ms", "-1",
            "per-query deadline budget: -1 = unbounded, so exact answers "
            "(over --connect: the daemon's default), 0 = the sketch floor "
            "answers")
      .flag("stats", "false", "with --connect: print daemon counters and exit")
      .flag("reload", "",
            "with --connect: ask the daemon to hot-swap to this artifact path")
      .flag("queries", "10000", "random query count")
      .flag("seed", "1", "query rng seed (client thread t draws from seed + t)")
      .flag("threads", "1",
            "client threads for the random-query run (over --connect, one "
            "connection each)")
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
    const std::string connect = args.get("connect");
    const bool audit = args.getBool("audit");
    if (!connect.empty() && audit)
      throw std::invalid_argument(
          "--audit needs the graph and is local-only; drop --connect");
    if (connect.empty() && args.get("artifact").empty())
      throw std::invalid_argument("query requires --artifact <path>");
    if (args.has("u") != args.has("v"))
      throw std::invalid_argument("--u and --v must be given together");

    const auto q =
        static_cast<std::size_t>(args.getInt("queries", 1, kMaxQueries));
    const std::size_t threads = std::min<std::size_t>(
        q, static_cast<std::size_t>(
               args.getInt("threads", 1, runtime::kMaxThreads)));
    const auto seed =
        static_cast<std::uint64_t>(args.getInt("seed", 0, kMaxInt64));
    const auto deadlineMs = static_cast<int>(
        args.getInt("deadline-ms", -1, std::numeric_limits<int>::max()));
    std::optional<std::pair<VertexId, VertexId>> single;
    if (args.has("u"))
      single.emplace(static_cast<VertexId>(args.getInt("u", 0, kMaxVertexId)),
                     static_cast<VertexId>(args.getInt("v", 0, kMaxVertexId)));

    std::size_t n = 0;
    double composedStretch = 0;
    std::optional<query::QueryPlane> plane;
    std::vector<std::unique_ptr<serve::ServeClient>> clients;
    Ask ask;
    if (!connect.empty()) {
      const auto [host, port] = parseEndpoint(connect);
      for (std::size_t t = 0; t < threads; ++t) {
        serve::ClientOptions copt;
        copt.host = host;
        copt.port = port;
        copt.seed = seed + t;
        clients.push_back(std::make_unique<serve::ServeClient>(copt));
      }
      if (!args.get("reload").empty() || args.getBool("stats")) {
        runDaemonCommand(args, *clients[0]);
        return 0;
      }
      const std::uint64_t wireDeadline =
          deadlineMs < 0 ? serve::kDeadlineDefault
                         : static_cast<std::uint64_t>(deadlineMs);
      ask = [&clients, wireDeadline](std::size_t t, VertexId u, VertexId v) {
        return clients[t]->query(u, v, wireDeadline);
      };
      n = clients[0]->serverInfo().numVertices;
    } else {
      query::QueryArtifact a = query::loadArtifactFile(args.get("artifact"));
      n = a.graph.numVertices();
      composedStretch = a.composedStretch;
      std::fprintf(stdout,
                   "loaded artifact: n=%zu m=%zu, spanner %zu edges (%s, k=%u), "
                   "sketch k=%u, composed stretch <= %.1f\n",
                   n, a.graph.numEdges(), a.spannerEdges.size(),
                   a.algorithm.c_str(), a.k, a.sketchParams.k, a.composedStretch);
      // The plane takes the graph over; read it back through plane->graph.
      plane.emplace(query::makeQueryPlane(std::move(a)));
      ask = [&plane, deadlineMs](std::size_t, VertexId u, VertexId v) {
        const query::BudgetedAnswer a = plane->tiered->queryBudgeted(
            u, v, util::DeadlineBudget(deadlineMs));
        return serve::WireAnswer{a.dist, a.tier, a.degraded, a.stretch, 0};
      };
    }
    if (n == 0) throw std::runtime_error("the served graph is empty");

    if (single) {
      const auto [u, v] = *single;
      if (u >= n || v >= n)
        throw std::invalid_argument("--u/--v out of range [0, n)");
      printAnswer(u, v, ask(0, u, v));
      return 0;
    }

    const RandomRun run = runRandomQueries(q, n, threads, seed, ask, audit);
    if (plane) printTiers(plane->tiered->snapshot().tiers);
    std::fprintf(stdout,
                 "%sserved %zu %squeries in %.3f s (%.0f qps, %zu client "
                 "threads), %zu degraded (%.1f%%)\n",
                 plane ? "\n" : "", q, plane ? "" : "remote ", run.seconds,
                 run.seconds > 0 ? static_cast<double>(q) / run.seconds : 0.0,
                 threads, run.degraded,
                 100.0 * static_cast<double>(run.degraded) /
                     static_cast<double>(q));

    if (audit) {
      const query::AuditReport report = query::auditEnvelope(
          *plane->graph, run.pairs, run.answers, composedStretch);
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
    const GraphSource src = graphSourceOf(args);
    const query::BuildPlan plan = planOf(args);
    const bool verify = args.getBool("verify");
    const Graph g = loadGraph(src);
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

    if (verify) {
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
