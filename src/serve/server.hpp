// The serving daemon's core: a Server owns a listening socket, a bounded
// accept queue drained by a small session-thread pool, and an RCU-swapped
// snapshot of the query plane. tools/mpcspand.cc is a thin main() around
// it; tests drive the same class in-process.
//
// Robustness layers (see src/serve/README.md for the full story):
//   deadlines   every QUERY carries a budget; TieredOracle::queryBudgeted
//               degrades to a cheaper tier (flagged, stretch-certified)
//               rather than blowing it.
//   hot reload  RELOAD command or SIGHUP loads a new artifact off-thread
//               and swaps it in atomically (std::atomic<shared_ptr> RCU).
//               A corrupt artifact is rejected; the old snapshot keeps
//               serving. In-flight queries hold the snapshot they started
//               with.
//   shedding    past the accept-queue watermark a connection gets a
//               best-effort shed reply and a close — bounded memory,
//               bounded latency for everyone already admitted.
//   isolation   per-session faults (garbage frames, slow readers, peers
//               dying mid-request) close that session, bump a counter,
//               and never touch the daemon.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "query/build.hpp"
#include "serve/net.hpp"
#include "serve/protocol.hpp"

namespace mpcspan::serve {

struct ServerOptions {
  std::string artifactPath;  // required: initial snapshot
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  // 0 = ephemeral (port() reports the bound one)
  std::size_t sessionThreads = 4;
  /// Accept-queue watermark: connections beyond it are shed, not queued.
  std::size_t queueCapacity = 64;
  /// Budget for QUERY frames that don't carry their own (-1 = unbounded).
  int defaultDeadlineMs = -1;
  /// A started frame must finish arriving within this (slow senders).
  int frameTimeoutMs = 10000;
  /// A reply must drain within this (slow readers).
  int writeTimeoutMs = 10000;
  /// Stop-flag check granularity of every blocking wait.
  int pollSliceMs = 200;
};

class Server {
 public:
  explicit Server(ServerOptions opts);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Loads the initial artifact, binds, and spawns the acceptor, session,
  /// and reloader threads. Throws on a bad artifact or un-bindable port —
  /// a daemon that cannot serve must die loudly at startup, not limp.
  void start();

  /// Requests shutdown and joins every thread. Idempotent; called by the
  /// destructor. Pending (unserved) connections are closed unanswered.
  void stop();

  /// Blocks until a stop was requested ('T' on the signal fd or stop()).
  void waitUntilStopRequested();

  std::uint16_t port() const { return port_; }

  /// Write end of the self-pipe — the only thing a signal handler touches.
  /// Async-signal-safe by construction: one nonblocking write() of 'T'
  /// (terminate) or 'H' (reload current artifact path).
  int signalFd() const { return signalWrite_.fd(); }

  /// Loads `path` (empty = the current snapshot's path) and atomically
  /// swaps it in. On any load failure the old snapshot keeps serving,
  /// reloadsFailed is bumped, and *err gets the reason. Serialized — one
  /// reload at a time; queries are never blocked by it.
  bool reload(const std::string& path, std::string* err);

  ServeStats statsSnapshot() const;

 private:
  /// One immutable generation of serving state. Sessions grab the current
  /// one per request; a reload swaps the pointer and the old generation
  /// dies when its last in-flight query drops it.
  struct Snapshot {
    query::QueryPlane plane;
    std::uint64_t version = 0;
    std::string path;
    std::size_t numVertices = 0;
    double composedStretch = 1.0;
  };

  std::shared_ptr<const Snapshot> loadSnapshot(const std::string& path,
                                               std::uint64_t version) const;
  void acceptorLoop();
  void sessionLoop();
  void reloaderLoop();
  void serveConnection(WireFd conn);
  /// Dispatches one parsed request frame; returns false to close the
  /// session. Throws nothing — codec faults are handled inside.
  bool dispatch(WireFd& conn, const std::vector<std::uint8_t>& body,
                bool& helloDone);
  bool sendReply(WireFd& conn, const WireWriter& w);
  bool sendError(WireFd& conn, const std::string& msg);
  void requestStopLocked();

  ServerOptions opts_;
  std::uint16_t port_ = 0;
  WireFd listener_;
  WireFd signalRead_, signalWrite_;  // self-pipe (both ends nonblocking)

  std::atomic<std::shared_ptr<const Snapshot>> snapshot_;
  std::mutex reloadMutex_;  // serializes loads, not queries

  std::thread acceptor_;
  std::vector<std::thread> sessions_;
  std::thread reloader_;
  std::atomic<bool> stopping_{false};
  bool started_ = false;

  std::mutex queueMutex_;
  std::condition_variable queueCv_;
  std::deque<WireFd> pending_;

  std::mutex reloadReqMutex_;
  std::condition_variable reloadCv_;
  std::size_t reloadRequests_ = 0;

  std::mutex stopMutex_;
  std::condition_variable stopCv_;
  bool stopRequested_ = false;

  // Daemon-lifetime counters (tier counters live in the snapshot's oracle
  // and restart on reload; these persist across reloads).
  mutable std::atomic<std::uint64_t> accepted_{0};
  mutable std::atomic<std::uint64_t> activeSessions_{0};
  mutable std::atomic<std::uint64_t> queries_{0};
  mutable std::atomic<std::uint64_t> degraded_{0};
  mutable std::atomic<std::uint64_t> shedQueueFull_{0};
  mutable std::atomic<std::uint64_t> slowClientDrops_{0};
  mutable std::atomic<std::uint64_t> malformedFrames_{0};
  mutable std::atomic<std::uint64_t> reloadsOk_{0};
  mutable std::atomic<std::uint64_t> reloadsFailed_{0};
};

}  // namespace mpcspan::serve
