// The serving daemon, driven in-process: protocol round-trips against a
// directly assembled QueryPlane (bit-identical when not degraded),
// deadline-budgeted degradation staying inside the answering tier's
// certified stretch, hot-reload atomicity (a corrupt artifact is rejected
// and the old snapshot keeps serving), overload shedding at the accept
// watermark, malformed/oversized frames answered with a typed error and a
// close, and fd hygiene across a thousand connect/query/close cycles.
// Runs under the full sanitizer matrix in CI.
#include <gtest/gtest.h>

#include <dirent.h>

#include <cstdio>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "graph/distance.hpp"
#include "graph/generators.hpp"
#include "query/audit.hpp"
#include "query/build.hpp"
#include "serve/client.hpp"
#include "serve/net.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/deadline.hpp"
#include "util/socket.hpp"

namespace mpcspan {
namespace {

using serve::ClientOptions;
using serve::ServeClient;
using serve::Server;
using serve::ServerOptions;

std::string buildTestArtifact(const std::string& name, std::size_t n,
                              std::uint64_t seed) {
  const std::string path = ::testing::TempDir() + "/serve_" + name + ".mpqa";
  Rng rng(seed);
  const Graph g = gnmRandom(n, 4 * n, rng, {WeightModel::kUniform, 50.0},
                            /*connected=*/true);
  query::BuildPlan plan;
  plan.algo = "tradeoff";
  plan.k = 4;
  plan.sketchK = 2;
  plan.seed = seed;
  const query::QueryArtifact a = query::buildArtifact(g, plan);
  query::saveArtifactFile(a, path);
  return path;
}

/// A raw connection to the daemon, for tests that speak the wire by hand.
util::WireFd dialRaw(std::uint16_t port) {
  std::string err;
  util::WireFd fd = util::dialTcp("127.0.0.1", port, 2000, err);
  EXPECT_TRUE(fd.valid()) << err;
  return fd;
}

const std::string& artifactA() {
  static const std::string p = buildTestArtifact("a", 300, 1);
  return p;
}

const std::string& artifactB() {
  static const std::string p = buildTestArtifact("b", 200, 7);
  return p;
}

ServerOptions testServerOptions(const std::string& artifact) {
  ServerOptions o;
  o.artifactPath = artifact;
  o.port = 0;
  o.sessionThreads = 4;
  o.pollSliceMs = 50;   // snappy stop under test
  o.frameTimeoutMs = 2000;
  o.writeTimeoutMs = 2000;
  return o;
}

ClientOptions clientFor(const Server& s, int maxRetries = 3) {
  ClientOptions c;
  c.port = s.port();
  c.maxRetries = maxRetries;
  c.connectTimeoutMs = 2000;
  c.requestTimeoutMs = 4000;
  c.backoffBaseMs = 5;
  c.backoffMaxMs = 50;
  return c;
}

std::size_t openFdCount() {
  std::size_t count = 0;
  DIR* d = ::opendir("/proc/self/fd");
  if (d == nullptr) return 0;
  while (::readdir(d) != nullptr) ++count;
  ::closedir(d);
  return count;
}

// --- The generalized deadline budget -------------------------------------

TEST(DeadlineBudget, UnboundedNeverExpires) {
  const util::DeadlineBudget b;
  EXPECT_FALSE(b.bounded());
  EXPECT_FALSE(b.expired());
  EXPECT_EQ(b.remainingMs(), -1);
  EXPECT_EQ(b.remainingNanos(), -1);
}

TEST(DeadlineBudget, ZeroIsBoundedAndExpired) {
  const util::DeadlineBudget b(0);
  EXPECT_TRUE(b.bounded());
  EXPECT_TRUE(b.expired());
  EXPECT_EQ(b.remainingMs(), 0);
  EXPECT_EQ(b.remainingNanos(), 0);
}

TEST(DeadlineBudget, BoundedCountsDown) {
  const util::DeadlineBudget b(60000);
  EXPECT_TRUE(b.bounded());
  EXPECT_FALSE(b.expired());
  EXPECT_GT(b.remainingNanos(), 0);
  EXPECT_LE(b.remainingMs(), 60000);
}

// --- Accuracy-first budgeted queries on the oracle itself -----------------

TEST(QueryBudgeted, UnboundedBudgetAnswersFromStrongestTier) {
  const query::QueryArtifact a = query::loadArtifactFile(artifactA());
  const query::QueryPlane plane = query::makeQueryPlane(a);
  Rng rng(11);
  for (int i = 0; i < 50; ++i) {
    const auto u = static_cast<VertexId>(rng.next(a.graph.numVertices()));
    const auto v = static_cast<VertexId>(rng.next(a.graph.numVertices()));
    const query::BudgetedAnswer ans =
        plane.tiered->queryBudgeted(u, v, util::DeadlineBudget());
    EXPECT_EQ(ans.tier, 1);
    EXPECT_FALSE(ans.degraded);
    EXPECT_DOUBLE_EQ(ans.stretch, 1.0);
    EXPECT_EQ(ans.dist, dijkstra(a.graph, u)[v]);
  }
}

TEST(QueryBudgeted, ExpiredBudgetDegradesToFloorWithinStretch) {
  const query::QueryArtifact a = query::loadArtifactFile(artifactA());
  const query::QueryPlane plane = query::makeQueryPlane(a);
  Rng rng(13);
  for (int i = 0; i < 50; ++i) {
    const auto u = static_cast<VertexId>(rng.next(a.graph.numVertices()));
    const auto v = static_cast<VertexId>(rng.next(a.graph.numVertices()));
    const query::BudgetedAnswer ans =
        plane.tiered->queryBudgeted(u, v, util::DeadlineBudget(0));
    EXPECT_EQ(ans.tier, 0) << "expired budget must answer from the floor";
    if (u == v) continue;
    EXPECT_TRUE(ans.degraded);
    const Weight exact = dijkstraPair(a.graph, u, v);
    EXPECT_GE(ans.dist, exact - 1e-9);
    EXPECT_LE(ans.dist, exact * ans.stretch + 1e-9)
        << "degraded answer left its certified stretch envelope";
  }
}

TEST(QueryBudgeted, SnapshotCountsQueriesAndDegradations) {
  const query::QueryArtifact a = query::loadArtifactFile(artifactA());
  const query::QueryPlane plane = query::makeQueryPlane(a);
  plane.tiered->resetStats();
  (void)plane.tiered->queryBudgeted(1, 2, util::DeadlineBudget(0));
  (void)plane.tiered->queryBudgeted(3, 4, util::DeadlineBudget());
  (void)plane.tiered->queryBudgeted(5, 6, util::DeadlineBudget(0));
  const query::OracleSnapshot snap = plane.tiered->snapshot();
  EXPECT_EQ(snap.queries, 3u);
  EXPECT_EQ(snap.degraded, 2u);
  ASSERT_EQ(snap.tiers.size(), 2u);
  EXPECT_EQ(snap.tiers[0].name, "sketch");
  EXPECT_EQ(snap.tiers[1].name, "exact");
  plane.tiered->resetStats();
  const query::OracleSnapshot clean = plane.tiered->snapshot();
  EXPECT_EQ(clean.queries, 0u);
  EXPECT_EQ(clean.degraded, 0u);
  for (const query::TierStats& t : clean.tiers) EXPECT_EQ(t.attempts, 0u);
}

// --- The envelope audit ----------------------------------------------------

TEST(AuditEnvelope, CleanAnswersPassAndViolationsAreNamed) {
  const query::QueryArtifact a = query::loadArtifactFile(artifactA());
  const query::QueryPlane plane = query::makeQueryPlane(a);
  Rng rng(17);
  std::vector<query::QueryPair> pairs(64);
  for (auto& p : pairs)
    p = {static_cast<VertexId>(rng.next(a.graph.numVertices())),
         static_cast<VertexId>(rng.next(a.graph.numVertices()))};
  std::vector<Weight> answers(pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i)
    answers[i] = plane.tiered
                     ->queryBudgeted(pairs[i].first, pairs[i].second,
                                     util::DeadlineBudget(0))
                     .dist;

  const query::AuditReport good =
      query::auditEnvelope(a.graph, pairs, answers, a.composedStretch);
  EXPECT_TRUE(good.ok());
  EXPECT_GT(good.audited, 0u);
  EXPECT_GE(good.maxRatio, 1.0 - 1e-9);

  // Corrupt one answer below the exact distance: the report must name the
  // offending pair with both values, exactly what --audit prints.
  std::size_t victim = pairs.size();
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (pairs[i].first != pairs[i].second && answers[i] > 1.0 &&
        answers[i] != kInfDist) {
      victim = i;
      break;
    }
  }
  ASSERT_LT(victim, pairs.size());
  const Weight truth = answers[victim];
  answers[victim] = truth * 0.5;
  const query::AuditReport bad =
      query::auditEnvelope(a.graph, pairs, answers, a.composedStretch);
  ASSERT_FALSE(bad.ok());
  bool found = false;
  for (const query::AuditViolation& v : bad.violations) {
    if (v.u == pairs[victim].first && v.v == pairs[victim].second) {
      found = true;
      EXPECT_EQ(v.got, truth * 0.5);
      EXPECT_GT(v.exact, 0.0);
    }
  }
  EXPECT_TRUE(found) << "violation report must carry the offending pair";
}

// --- Client backoff --------------------------------------------------------

TEST(ClientBackoff, BoundedExponentialWithJitter) {
  ClientOptions o;
  o.backoffBaseMs = 20;
  o.backoffMaxMs = 200;
  Rng rng(5);
  int prevCap = 0;
  for (int attempt = 0; attempt < 8; ++attempt) {
    const int cap = std::min<long long>(200, 20ll << attempt);
    for (int trial = 0; trial < 32; ++trial) {
      const int d = ServeClient::backoffDelayMs(attempt, o, rng);
      EXPECT_GE(d, cap / 2 - 1) << "jitter floor is half the step";
      EXPECT_LE(d, cap) << "delay must respect the cap";
    }
    EXPECT_GE(cap, prevCap) << "steps grow until the cap";
    prevCap = cap;
  }
}

// --- Protocol round-trip against the in-process daemon --------------------

TEST(ServeRoundTrip, WireAnswersBitIdenticalToLocalPlane) {
  Server server(testServerOptions(artifactA()));
  server.start();
  const query::QueryArtifact a = query::loadArtifactFile(artifactA());
  const query::QueryPlane local = query::makeQueryPlane(a);

  ServeClient client(clientFor(server));
  const serve::HelloInfo info = client.serverInfo();
  EXPECT_EQ(info.numVertices, a.graph.numVertices());
  EXPECT_DOUBLE_EQ(info.composedStretch, a.composedStretch);
  EXPECT_EQ(info.snapshotVersion, 1u);

  Rng rng(23);
  for (int i = 0; i < 100; ++i) {
    const auto u = static_cast<VertexId>(rng.next(a.graph.numVertices()));
    const auto v = static_cast<VertexId>(rng.next(a.graph.numVertices()));
    const serve::WireAnswer remote = client.query(u, v);
    const query::BudgetedAnswer mine =
        local.tiered->queryBudgeted(u, v, util::DeadlineBudget());
    EXPECT_FALSE(remote.degraded);
    EXPECT_EQ(remote.dist, mine.dist)
        << "undegraded wire answers must be bit-identical to the local plane";
    EXPECT_EQ(remote.tier, mine.tier);
  }
  server.stop();
}

TEST(ServeRoundTrip, ZeroDeadlineDegradesWithinCertifiedStretch) {
  Server server(testServerOptions(artifactA()));
  server.start();
  const query::QueryArtifact a = query::loadArtifactFile(artifactA());

  ServeClient client(clientFor(server));
  Rng rng(29);
  std::size_t degraded = 0;
  for (int i = 0; i < 60; ++i) {
    auto u = static_cast<VertexId>(rng.next(a.graph.numVertices()));
    auto v = static_cast<VertexId>(rng.next(a.graph.numVertices()));
    if (u == v) v = (v + 1) % static_cast<VertexId>(a.graph.numVertices());
    const serve::WireAnswer ans = client.query(u, v, /*deadlineMs=*/0);
    EXPECT_EQ(ans.tier, 0);
    EXPECT_TRUE(ans.degraded);
    if (ans.degraded) ++degraded;
    const Weight exact = dijkstraPair(a.graph, u, v);
    EXPECT_GE(ans.dist, exact - 1e-9);
    EXPECT_LE(ans.dist, exact * ans.stretch + 1e-9);
  }
  EXPECT_EQ(degraded, 60u);
  const serve::ServeStats s = client.stats();
  EXPECT_GE(s.degraded, 60u);
  server.stop();
}

TEST(ServeRoundTrip, PingAndStatsOverWire) {
  Server server(testServerOptions(artifactA()));
  server.start();
  ServeClient client(clientFor(server));
  client.ping();
  (void)client.query(1, 2);
  const serve::ServeStats s = client.stats();
  EXPECT_EQ(s.snapshotVersion, 1u);
  EXPECT_EQ(s.numVertices, 300u);
  EXPECT_GE(s.queries, 1u);
  EXPECT_GE(s.accepted, 1u);
  EXPECT_FALSE(s.tiers.empty());
  EXPECT_EQ(s.malformedFrames, 0u);
  server.stop();
}

TEST(ServeRoundTrip, OutOfRangeVertexErrorsButKeepsSession) {
  Server server(testServerOptions(artifactA()));
  server.start();
  ServeClient client(clientFor(server, /*maxRetries=*/0));
  EXPECT_THROW((void)client.query(100000, 1), serve::ServeRemoteError);
  // Same connection still serves: remote errors must not poison it.
  const serve::WireAnswer ans = client.query(1, 2);
  EXPECT_GE(ans.dist, 0.0);
  server.stop();
}

// --- Hot snapshot reload ---------------------------------------------------

TEST(ServeReload, CorruptArtifactRejectedOldSnapshotKeepsServing) {
  Server server(testServerOptions(artifactA()));
  server.start();
  ServeClient client(clientFor(server));
  const serve::WireAnswer before = client.query(1, 7);
  EXPECT_EQ(before.snapshotVersion, 1u);

  // A truncated copy of a valid artifact: loads must fail cleanly.
  const std::string corruptPath = ::testing::TempDir() + "/serve_corrupt.mpqa";
  {
    std::ifstream in(artifactA(), std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    ASSERT_GT(bytes.size(), 64u);
    bytes.resize(bytes.size() / 2);
    bytes[16] ^= 0x5a;  // and a bit-flip for good measure
    std::ofstream out(corruptPath, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_THROW((void)client.reload(corruptPath), serve::ServeRemoteError);

  const serve::ServeStats s = client.stats();
  EXPECT_EQ(s.reloadsFailed, 1u);
  EXPECT_EQ(s.reloadsOk, 0u);
  EXPECT_EQ(s.snapshotVersion, 1u) << "failed reload must not swap";
  const serve::WireAnswer after = client.query(1, 7);
  EXPECT_EQ(after.dist, before.dist);
  EXPECT_EQ(after.snapshotVersion, 1u);
  server.stop();
}

TEST(ServeReload, GoodArtifactSwapsAtomically) {
  Server server(testServerOptions(artifactA()));
  server.start();
  ServeClient client(clientFor(server));
  EXPECT_EQ(client.stats().numVertices, 300u);
  const std::uint64_t v2 = client.reload(artifactB());
  EXPECT_EQ(v2, 2u);
  const serve::ServeStats s = client.stats();
  EXPECT_EQ(s.snapshotVersion, 2u);
  EXPECT_EQ(s.numVertices, 200u) << "new snapshot must serve the new graph";
  EXPECT_EQ(s.reloadsOk, 1u);
  // Answers now come from artifact B's plane.
  const query::QueryArtifact b = query::loadArtifactFile(artifactB());
  const query::QueryPlane bPlane = query::makeQueryPlane(b);
  const serve::WireAnswer ans = client.query(3, 9);
  EXPECT_EQ(ans.snapshotVersion, 2u);
  EXPECT_EQ(ans.dist,
            bPlane.tiered->queryBudgeted(3, 9, util::DeadlineBudget()).dist);
  server.stop();
}

// --- Overload shedding -----------------------------------------------------

TEST(ServeShed, PastWatermarkConnectionsGetShedReply) {
  ServerOptions opts = testServerOptions(artifactA());
  opts.sessionThreads = 1;
  opts.queueCapacity = 1;
  Server server(opts);
  server.start();

  // A occupies the only session thread; B fills the queue; C must shed.
  ServeClient a(clientFor(server));
  a.ping();
  serve::WireFd b = dialRaw(server.port());
  // Wait until the acceptor has actually queued B (A can still be served —
  // it was popped off the queue before B arrived).
  for (int i = 0; i < 100 && a.stats().accepted < 2; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_GE(a.stats().accepted, 2u);

  ServeClient c(clientFor(server, /*maxRetries=*/0));
  EXPECT_THROW(c.ping(), serve::ServeShedError);
  const serve::ServeStats s = a.stats();
  EXPECT_GE(s.shedQueueFull, 1u);
  b.reset();
  server.stop();
}

// --- A client that connects and then says nothing ------------------------

TEST(ServeSilentClient, ConnectionThatNeverSaysHelloIsDroppedAndCounted) {
  // One session thread, and a connection that never sends a byte takes it.
  // The first frame (HELLO) is bounded by frameTimeoutMs, so the silent
  // connection is dropped as a slow client and a real client queued behind
  // it is still answered.
  ServerOptions opts = testServerOptions(artifactA());
  opts.sessionThreads = 1;
  opts.frameTimeoutMs = 200;
  Server server(opts);
  server.start();
  serve::WireFd silent = dialRaw(server.port());
  // Let the session thread pick the silent connection up first.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ServeClient client(clientFor(server));
  const serve::WireAnswer ans = client.query(1, 2);
  EXPECT_GE(ans.dist, 0.0);
  EXPECT_GE(client.stats().slowClientDrops, 1u);
  silent.reset();
  server.stop();
}

TEST(ServeSlowClient, StalledHalfFrameAfterHelloIsDroppedAndCounted) {
  // After HELLO a client may idle, but a frame it starts must finish within
  // frameTimeoutMs: half a QUERY frame, then silence, is a slow-client drop.
  ServerOptions opts = testServerOptions(artifactA());
  opts.frameTimeoutMs = 200;
  Server server(opts);
  server.start();
  serve::WireFd raw = dialRaw(server.port());
  const serve::IoPacing pacing{};
  serve::WireWriter hello;
  hello.u8(serve::kOpHello);
  serve::encodeHelloRequest(hello, {});
  ASSERT_EQ(serve::writeFrame(raw.fd(), hello.data(), hello.size(), 2000, pacing),
            serve::IoStatus::kOk);
  serve::RecvBuffer in;
  std::span<const std::uint8_t> reply;
  ASSERT_EQ(serve::readFrame(raw.fd(), in, reply, serve::kMaxServeFrameBytes,
                             util::DeadlineBudget(4000), 2000, pacing),
            serve::IoStatus::kOk);
  ASSERT_EQ(reply[0], serve::kReHello);
  const std::uint8_t half[10] = {25, 0, 0, 0, 0, 0, 0, 0, serve::kOpQuery, 1};
  ASSERT_EQ(util::writeBytes(raw.fd(), half, sizeof(half),
                             util::DeadlineBudget(2000), pacing),
            serve::IoStatus::kOk);
  // The server drops the session: EOF, long before the 4 s read budget.
  EXPECT_EQ(serve::readFrame(raw.fd(), in, reply, serve::kMaxServeFrameBytes,
                             util::DeadlineBudget(4000), 4000, pacing),
            serve::IoStatus::kEof);
  ServeClient probe(clientFor(server));
  EXPECT_GE(probe.stats().slowClientDrops, 1u);
  server.stop();
}

// --- Malformed input -------------------------------------------------------

TEST(ServeMalformed, OversizedFrameGetsErrorReplyAndClose) {
  Server server(testServerOptions(artifactA()));
  server.start();
  serve::WireFd raw = dialRaw(server.port());
  const serve::IoPacing pacing{};
  // Claim a 2 MiB frame — past the cap, body never sent.
  const std::uint64_t lie = 2ull << 20;
  ASSERT_EQ(util::writeBytes(raw.fd(), &lie, sizeof(lie),
                              util::DeadlineBudget(2000), pacing),
            serve::IoStatus::kOk);
  serve::RecvBuffer in;
  std::span<const std::uint8_t> reply;
  ASSERT_EQ(serve::readFrame(raw.fd(), in, reply, serve::kMaxServeFrameBytes,
                             util::DeadlineBudget(4000), 2000, pacing),
            serve::IoStatus::kOk);
  ASSERT_FALSE(reply.empty());
  EXPECT_EQ(reply[0], serve::kReError);
  EXPECT_EQ(in.pending(), 0u);
  // ... and the server closes: the next read is EOF, not a hang.
  std::uint8_t byte = 0;
  EXPECT_EQ(util::readBytes(raw.fd(), &byte, 1, util::DeadlineBudget(4000),
                             pacing),
            serve::IoStatus::kEof);

  ServeClient probe(clientFor(server));
  EXPECT_GE(probe.stats().malformedFrames, 1u);
  server.stop();
}

TEST(ServeMalformed, GarbageFrameGetsErrorReplyAndClose) {
  Server server(testServerOptions(artifactA()));
  server.start();
  serve::WireFd raw = dialRaw(server.port());
  const serve::IoPacing pacing{};
  // A plausible length with garbage bytes: parses to a hello whose body is
  // truncated, which the codec must reject without crashing.
  std::vector<std::uint8_t> junk = {serve::kOpHello, 0xde, 0xad};
  ASSERT_EQ(serve::writeFrame(raw.fd(), junk.data(), junk.size(), 2000,
                              pacing),
            serve::IoStatus::kOk);
  serve::RecvBuffer in;
  std::span<const std::uint8_t> reply;
  ASSERT_EQ(serve::readFrame(raw.fd(), in, reply, serve::kMaxServeFrameBytes,
                             util::DeadlineBudget(4000), 2000, pacing),
            serve::IoStatus::kOk);
  ASSERT_FALSE(reply.empty());
  EXPECT_EQ(reply[0], serve::kReError);
  EXPECT_EQ(in.pending(), 0u);
  std::uint8_t byte = 0;
  EXPECT_EQ(util::readBytes(raw.fd(), &byte, 1, util::DeadlineBudget(4000),
                             pacing),
            serve::IoStatus::kEof);

  // The daemon is unharmed: a fresh client gets real answers.
  ServeClient probe(clientFor(server));
  EXPECT_GE(probe.stats().malformedFrames, 1u);
  (void)probe.query(1, 2);
  server.stop();
}

TEST(ServeMalformed, WrongMagicHelloRejected) {
  Server server(testServerOptions(artifactA()));
  server.start();
  serve::WireFd raw = dialRaw(server.port());
  const serve::IoPacing pacing{};
  serve::WireWriter w;
  w.u8(serve::kOpHello);
  w.u64(0x1badd00dull);  // not kServeMagic
  w.u8(serve::kServeVersion);
  ASSERT_EQ(serve::writeFrame(raw.fd(), w.data(), w.size(), 2000, pacing),
            serve::IoStatus::kOk);
  serve::RecvBuffer in;
  std::span<const std::uint8_t> reply;
  ASSERT_EQ(serve::readFrame(raw.fd(), in, reply, serve::kMaxServeFrameBytes,
                             util::DeadlineBudget(4000), 2000, pacing),
            serve::IoStatus::kOk);
  ASSERT_FALSE(reply.empty());
  EXPECT_EQ(reply[0], serve::kReError);
  EXPECT_EQ(in.pending(), 0u);
  server.stop();
}

// --- Fd hygiene and shutdown ----------------------------------------------

TEST(ServeLifecycle, NoFdLeakAcrossManyConnectQueryCloseCycles) {
  Server server(testServerOptions(artifactA()));
  server.start();
  {
    // Prime: first connection settles lazily created fds (epoll pools etc).
    ServeClient warm(clientFor(server));
    (void)warm.query(1, 2);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const std::size_t before = openFdCount();
  for (int i = 0; i < 1000; ++i) {
    ServeClient c(clientFor(server));
    (void)c.query(static_cast<VertexId>(i % 300),
                  static_cast<VertexId>((i * 7) % 300));
    c.close();
  }
  // Let the session threads notice the EOFs and drop their ends.
  for (int spin = 0; spin < 100; ++spin) {
    if (openFdCount() <= before + 4) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  const std::size_t after = openFdCount();
  EXPECT_LE(after, before + 4)
      << "fd count grew across cycles: " << before << " -> " << after;
  server.stop();
}

TEST(ServeLifecycle, StopJoinsWithIdleClientConnected) {
  Server server(testServerOptions(artifactA()));
  server.start();
  ServeClient idle(clientFor(server));
  idle.ping();  // session thread is now parked in the idle read
  server.stop();  // must not hang on the quiet connection
  SUCCEED();
}

TEST(ServeLifecycle, SignalFdTriggersStop) {
  Server server(testServerOptions(artifactA()));
  server.start();
  const char t = 'T';
  ASSERT_EQ(::write(server.signalFd(), &t, 1), 1);
  server.waitUntilStopRequested();
  server.stop();
  SUCCEED();
}

}  // namespace
}  // namespace mpcspan
