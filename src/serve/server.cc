#include "serve/server.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <limits>
#include <stdexcept>

namespace mpcspan::serve {

using runtime::shard::ShardError;

Server::Server(ServerOptions opts) : opts_(std::move(opts)) {
  if (opts_.artifactPath.empty())
    throw std::invalid_argument("Server: artifactPath is required");
  if (opts_.sessionThreads == 0) opts_.sessionThreads = 1;
  if (opts_.queueCapacity == 0) opts_.queueCapacity = 1;
}

Server::~Server() { stop(); }

std::shared_ptr<const Server::Snapshot> Server::loadSnapshot(
    const std::string& path, std::uint64_t version) const {
  query::QueryArtifact a = query::loadArtifactFile(path);
  if (a.graph.numVertices() == 0)
    throw std::runtime_error("artifact graph is empty: " + path);
  auto snap = std::make_shared<Snapshot>();
  snap->version = version;
  snap->path = path;
  snap->numVertices = a.graph.numVertices();
  snap->composedStretch = a.composedStretch;
  // Last: the plane takes the graph and sketch tables over without a copy.
  snap->plane = query::makeQueryPlane(std::move(a));
  return snap;
}

void Server::start() {
  if (started_) return;
  ignoreSigpipe();
  snapshot_.store(loadSnapshot(opts_.artifactPath, 1));
  std::string err;
  listener_ = util::listenTcp(opts_.host, opts_.port, 0, &port_, err);
  // A daemon that cannot bind must die loudly at startup.
  if (!listener_.valid()) throw std::runtime_error("serve listen " + err);
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC | O_NONBLOCK) != 0)
    throw std::runtime_error(std::string("serve self-pipe: ") +
                             std::strerror(errno));
  signalRead_.reset(fds[0]);
  signalWrite_.reset(fds[1]);
  stopping_.store(false);
  {
    std::lock_guard<std::mutex> lk(stopMutex_);
    stopRequested_ = false;
  }
  acceptor_ = std::thread(&Server::acceptorLoop, this);
  for (std::size_t i = 0; i < opts_.sessionThreads; ++i)
    sessions_.emplace_back(&Server::sessionLoop, this);
  reloader_ = std::thread(&Server::reloaderLoop, this);
  started_ = true;
}

void Server::requestStopLocked() {
  {
    std::lock_guard<std::mutex> lk(stopMutex_);
    stopRequested_ = true;
  }
  stopping_.store(true);
  stopCv_.notify_all();
  queueCv_.notify_all();
  reloadCv_.notify_all();
}

void Server::stop() {
  if (!started_) return;
  requestStopLocked();
  if (acceptor_.joinable()) acceptor_.join();
  for (std::thread& t : sessions_)
    if (t.joinable()) t.join();
  sessions_.clear();
  if (reloader_.joinable()) reloader_.join();
  {
    std::lock_guard<std::mutex> lk(queueMutex_);
    pending_.clear();  // unserved connections close unanswered
  }
  listener_.reset();
  signalRead_.reset();
  signalWrite_.reset();
  started_ = false;
}

void Server::waitUntilStopRequested() {
  std::unique_lock<std::mutex> lk(stopMutex_);
  stopCv_.wait(lk, [&] { return stopRequested_; });
}

bool Server::reload(const std::string& path, std::string* err) {
  // One load at a time; queries never take this lock — they only read the
  // atomic snapshot pointer.
  std::lock_guard<std::mutex> lk(reloadMutex_);
  const auto cur = snapshot_.load();
  const std::string target = path.empty() ? cur->path : path;
  try {
    snapshot_.store(loadSnapshot(target, cur->version + 1));
    reloadsOk_.fetch_add(1, std::memory_order_relaxed);
    return true;
  } catch (const std::exception& e) {
    // The old snapshot was never touched; it keeps serving.
    reloadsFailed_.fetch_add(1, std::memory_order_relaxed);
    if (err != nullptr) *err = e.what();
    return false;
  }
}

ServeStats Server::statsSnapshot() const {
  ServeStats s;
  const auto snap = snapshot_.load();
  if (snap) {
    s.snapshotVersion = snap->version;
    s.numVertices = snap->numVertices;
    s.tiers = snap->plane.tiered->snapshot().tiers;
  }
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.activeSessions = activeSessions_.load(std::memory_order_relaxed);
  s.queries = queries_.load(std::memory_order_relaxed);
  s.degraded = degraded_.load(std::memory_order_relaxed);
  s.shedQueueFull = shedQueueFull_.load(std::memory_order_relaxed);
  s.slowClientDrops = slowClientDrops_.load(std::memory_order_relaxed);
  s.malformedFrames = malformedFrames_.load(std::memory_order_relaxed);
  s.reloadsOk = reloadsOk_.load(std::memory_order_relaxed);
  s.reloadsFailed = reloadsFailed_.load(std::memory_order_relaxed);
  return s;
}

void Server::acceptorLoop() {
  // Shed connections linger here until the client has seen the reply. A
  // close right after the shed write races the client's in-flight hello:
  // data arriving at a closed socket triggers an RST, which can destroy
  // the unread shed frame in the client's receive buffer. Instead the fd
  // is drained and held (bounded: ~250 ms or the client's own close),
  // polled nonblockingly from this loop — shedding never blocks accepts.
  struct Shedding {
    WireFd fd;
    util::DeadlineBudget linger;
  };
  std::vector<Shedding> shedding;
  const auto pumpShedding = [&shedding] {
    std::erase_if(shedding, [](Shedding& s) {
      char sink[256];
      for (;;) {
        const ssize_t rc = ::recv(s.fd.fd(), sink, sizeof(sink), 0);
        if (rc > 0) continue;                      // discard stray bytes
        if (rc == 0) return true;                  // client closed: done
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
          return s.linger.expired();               // keep until expiry
        return true;                               // socket error: drop
      }
    });
  };

  while (!stopping_.load(std::memory_order_relaxed)) {
    pumpShedding();
    pollfd fds[2] = {{listener_.fd(), POLLIN, 0},
                     {signalRead_.fd(), POLLIN, 0}};
    const int rc = ::poll(fds, 2, opts_.pollSliceMs > 0 ? opts_.pollSliceMs
                                                        : 200);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;  // a broken poll fd set is unrecoverable; stop() cleans up
    }
    if (fds[1].revents != 0) {
      char cmds[64];
      for (;;) {
        const ssize_t nr = ::read(signalRead_.fd(), cmds, sizeof(cmds));
        if (nr <= 0) break;  // EAGAIN / EINTR: drained (or retry next poll)
        for (ssize_t i = 0; i < nr; ++i) {
          if (cmds[i] == 'T') requestStopLocked();
          if (cmds[i] == 'H') {
            {
              std::lock_guard<std::mutex> lk(reloadReqMutex_);
              ++reloadRequests_;
            }
            reloadCv_.notify_one();
          }
        }
      }
    }
    if (stopping_.load(std::memory_order_relaxed)) break;
    if (fds[0].revents == 0) continue;
    // Drain every pending connection; past the watermark, shed instead of
    // queueing — bounded memory, and the client learns "retry later" now
    // rather than timing out in a line that will never move.
    for (;;) {
      WireFd conn = util::acceptOn(listener_.fd());
      if (!conn.valid()) break;
      bool shed = false;
      {
        std::lock_guard<std::mutex> lk(queueMutex_);
        if (pending_.size() >= opts_.queueCapacity) {
          shed = true;
        } else {
          pending_.push_back(std::move(conn));
          accepted_.fetch_add(1, std::memory_order_relaxed);
        }
      }
      if (shed) {
        shedQueueFull_.fetch_add(1, std::memory_order_relaxed);
        WireWriter w;
        w.u8(kReShed);
        encodeText(w, "server overloaded: accept queue full, retry with backoff");
        // Best effort: one write attempt, no waiting on the shed client.
        (void)writeFrame(conn.fd(), w.data(), w.size(), 0,
                         IoPacing{&stopping_, 1});
        (void)::shutdown(conn.fd(), SHUT_WR);  // FIN after the shed frame
        if (shedding.size() < 128)
          shedding.push_back({std::move(conn), util::DeadlineBudget(250)});
      } else {
        queueCv_.notify_one();
      }
    }
  }
  queueCv_.notify_all();
  reloadCv_.notify_all();
}

void Server::sessionLoop() {
  for (;;) {
    WireFd conn;
    {
      std::unique_lock<std::mutex> lk(queueMutex_);
      queueCv_.wait(lk, [&] {
        return stopping_.load(std::memory_order_relaxed) || !pending_.empty();
      });
      if (stopping_.load(std::memory_order_relaxed)) return;
      conn = std::move(pending_.front());
      pending_.pop_front();
    }
    activeSessions_.fetch_add(1, std::memory_order_relaxed);
    serveConnection(std::move(conn));
    activeSessions_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void Server::reloaderLoop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(reloadReqMutex_);
      reloadCv_.wait(lk, [&] {
        return stopping_.load(std::memory_order_relaxed) ||
               reloadRequests_ > 0;
      });
      if (stopping_.load(std::memory_order_relaxed)) return;
      reloadRequests_ = 0;  // coalesce a burst of SIGHUPs into one load
    }
    std::string err;
    if (!reload("", &err))
      std::fprintf(stderr, "mpcspand: reload failed (still serving old snapshot): %s\n",
                   err.c_str());
  }
}

void Server::serveConnection(WireFd conn) {
  const IoPacing pacing{&stopping_, opts_.pollSliceMs};
  // A client that never says HELLO would pin this session thread forever:
  // the first frame must land within frameTimeoutMs of the session start.
  // After HELLO a quiet client may sit connected.
  const util::DeadlineBudget hello(opts_.frameTimeoutMs);
  const util::DeadlineBudget idle;
  RecvBuffer in;
  std::span<const std::uint8_t> body;
  bool helloDone = false;
  for (;;) {
    const IoStatus st =
        readFrame(conn.fd(), in, body, kMaxServeFrameBytes,
                  helloDone ? idle : hello, opts_.frameTimeoutMs, pacing);
    if (st == IoStatus::kOk) {
      if (!dispatch(conn, body, helloDone)) break;
      continue;
    }
    if (st == IoStatus::kMalformed) {
      malformedFrames_.fetch_add(1, std::memory_order_relaxed);
      sendError(conn, "malformed frame: implausible length prefix");
      break;
    }
    if (st == IoStatus::kTimeout)
      slowClientDrops_.fetch_add(1, std::memory_order_relaxed);
    break;  // kEof / kStopped / kError: nothing left to say
  }
}

bool Server::sendReply(WireFd& conn, const WireWriter& w) {
  const IoPacing pacing{&stopping_, opts_.pollSliceMs};
  const IoStatus st =
      writeFrame(conn.fd(), w.data(), w.size(), opts_.writeTimeoutMs, pacing);
  if (st == IoStatus::kTimeout)
    slowClientDrops_.fetch_add(1, std::memory_order_relaxed);
  return st == IoStatus::kOk;
}

bool Server::sendError(WireFd& conn, const std::string& msg) {
  WireWriter w;
  w.u8(kReError);
  encodeText(w, msg);
  return sendReply(conn, w);
}

bool Server::dispatch(WireFd& conn, std::span<const std::uint8_t> body,
                      bool& helloDone) {
  WireReader r = WireReader::view(body);
  try {
    const std::uint8_t op = r.u8();
    if (!helloDone && op != kOpHello) {
      sendError(conn, "hello required before requests");
      return false;
    }
    switch (op) {
      case kOpHello: {
        const HelloRequest hello = decodeHelloRequest(r);
        if (hello.magic != kServeMagic) {
          sendError(conn, "bad magic (not an mpcspand client)");
          return false;
        }
        if (hello.version != kServeVersion) {
          sendError(conn, "protocol version " + std::to_string(hello.version) +
                              " != " + std::to_string(kServeVersion));
          return false;
        }
        const auto snap = snapshot_.load();
        WireWriter w;
        w.u8(kReHello);
        encodeHelloInfo(
            w, {snap->version, snap->numVertices, snap->composedStretch});
        helloDone = true;
        return sendReply(conn, w);
      }
      case kOpQuery: {
        const auto [u, v, deadlineMs] = decodeQuery(r);
        // Queries pin the snapshot they started with; a concurrent reload
        // swaps the pointer but cannot pull this one out from under us.
        const auto snap = snapshot_.load();
        if (u >= snap->numVertices || v >= snap->numVertices)
          return sendError(conn, "vertex id out of range [0, " +
                                     std::to_string(snap->numVertices) + ")");
        int budgetMs = opts_.defaultDeadlineMs;
        if (deadlineMs != kDeadlineDefault)
          budgetMs = deadlineMs >
                             static_cast<std::uint64_t>(
                                 std::numeric_limits<int>::max())
                         ? std::numeric_limits<int>::max()
                         : static_cast<int>(deadlineMs);
        const util::DeadlineBudget budget(budgetMs);
        const query::BudgetedAnswer ans = snap->plane.tiered->queryBudgeted(
            static_cast<VertexId>(u), static_cast<VertexId>(v), budget);
        queries_.fetch_add(1, std::memory_order_relaxed);
        if (ans.degraded) degraded_.fetch_add(1, std::memory_order_relaxed);
        WireWriter w;
        w.u8(kReAnswer);
        encodeAnswer(w, {ans.dist, ans.tier, ans.degraded, ans.stretch,
                         snap->version});
        return sendReply(conn, w);
      }
      case kOpStats: {
        WireWriter w;
        w.u8(kReStats);
        encodeStats(w, statsSnapshot());
        return sendReply(conn, w);
      }
      case kOpReload: {
        const std::string path = decodeText(r);
        std::string err;
        if (!reload(path, &err))
          return sendError(conn, "reload rejected: " + err);
        WireWriter w;
        w.u8(kReOk);
        w.u64(snapshot_.load()->version);
        return sendReply(conn, w);
      }
      case kOpPing: {
        WireWriter w;
        w.u8(kReOk);
        w.u64(0);
        return sendReply(conn, w);
      }
      default:
        sendError(conn, "unknown opcode " + std::to_string(op));
        return false;
    }
  } catch (const ShardError& e) {
    // A frame that passed the length vetting but not the codec: garbage.
    malformedFrames_.fetch_add(1, std::memory_order_relaxed);
    sendError(conn, std::string("malformed frame: ") + e.what());
    return false;
  }
}

}  // namespace mpcspan::serve
