#include "runtime/shard/sharded_engine.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <utility>

#include "runtime/shard/peer_mesh.hpp"
#include "runtime/shard/protocol.hpp"
#include "runtime/shard/shm_ring.hpp"
#include "runtime/shard/tcp_transport.hpp"
#include "runtime/shard/worker_loop.hpp"

namespace mpcspan::runtime::shard {

namespace {

struct Proc {
  pid_t pid = -1;
  WireFd fd;  // coordinator end of the socketpair
};

/// Forks one process per index; `body(i, fd)` runs in the child, which then
/// exits without unwinding (no destructors, no atexit — the child shares
/// the parent's stdio buffers and thread-owning objects by fork).
template <class Body>
std::vector<Proc> forkProcs(std::size_t count, const Body& body) {
  std::vector<WireFd> parentEnds(count);
  std::vector<WireFd> childEnds(count);
  for (std::size_t s = 0; s < count; ++s)
    makeSocketPair(parentEnds[s], childEnds[s]);

  std::vector<Proc> procs(count);
  for (std::size_t s = 0; s < count; ++s) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      // Abort: close our ends (children see EOF and exit) and reap what was
      // already forked.
      for (std::size_t j = 0; j < s; ++j) {
        procs[j].fd.reset();
        int st = 0;
        while (::waitpid(procs[j].pid, &st, 0) < 0 && errno == EINTR) {
        }
      }
      throw ShardError("ShardedEngine: fork failed");
    }
    if (pid == 0) {
      // Worker: keep only this shard's child end. All pairs were created
      // before the first fork, so every sibling end is inherited and must
      // be dropped for EOF detection to work.
      for (std::size_t j = 0; j < count; ++j) {
        parentEnds[j].reset();
        if (j != s) childEnds[j].reset();
      }
      try {
        body(s, childEnds[s]);
      } catch (...) {
        // Wire failure mid-protocol or an unhandled internal error. Exit
        // abnormally; the coordinator reads it as a crash.
        std::_Exit(3);
      }
      std::_Exit(0);
    }
    procs[s].pid = pid;
    procs[s].fd = std::move(parentEnds[s]);
  }
  // Coordinator: drop the child ends so a worker's death is visible as EOF.
  for (std::size_t s = 0; s < count; ++s) childEnds[s].reset();
  return procs;
}

}  // namespace

ShardedEngine::ShardedEngine(std::size_t numMachines, std::size_t shards,
                             std::size_t threadsPerShard,
                             const Topology* topology,
                             const std::vector<KernelRegistration>* kernels,
                             BlockStore* blocks, Transport transport)
    : numMachines_(numMachines),
      shards_(shards),
      threadsPerShard_(threadsPerShard == 0 ? 1 : threadsPerShard),
      topology_(topology),
      transport_(transport),
      kernels_(kernels),
      blocks_(blocks) {
  if (numMachines_ == 0)
    throw std::invalid_argument("ShardedEngine: numMachines must be positive");
  if (shards_ < 2 || shards_ > numMachines_)
    throw std::invalid_argument(
        "ShardedEngine: shards must be in [2, numMachines]");
  if (!topology_) throw std::invalid_argument("ShardedEngine: null topology");
}

ShardedEngine::~ShardedEngine() { shutdownWorkers(); }

std::size_t ShardedEngine::shardBegin(std::size_t s) const {
  return shardRangeBegin(numMachines_, shards_, s);
}

std::size_t ShardedEngine::shardOf(std::size_t machine) const {
  return shardOfMachine(numMachines_, shards_, machine);
}

std::size_t ShardedEngine::defaultShards() {
  if (const char* env = std::getenv("MPCSPAN_SHARDS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v >= 1) return static_cast<std::size_t>(v);
  }
  return 1;
}

std::vector<pid_t> ShardedEngine::workerPids() const {
  std::vector<pid_t> pids;
  pids.reserve(workers_.size());
  for (const Worker& w : workers_) pids.push_back(w.pid);
  return pids;
}

void ShardedEngine::start() {
  if (failed_)
    throw ShardError(
        "ShardedEngine: shard backend is down (a worker died earlier)");
  if (started()) return;
  if (transport_ == Transport::kTcp) {
    startTcp();
    return;
  }
  // The shared arena and the doorbell mesh must exist before the first fork
  // so every worker inherits the one mapping and its own mesh row. Worker s
  // keeps row s and drops every other row's fds (both ends of foreign
  // pairs), so a dead peer reads as EOF, never as a silently-held open
  // socket. The coordinator closes the whole matrix when this frame
  // unwinds — it never touches a ring or doorbell byte.
  shmArena_ = std::make_unique<ShmArena>(shards_);
  std::vector<std::vector<WireFd>> mesh = makeMesh(shards_);
  std::vector<Proc> procs =
      forkProcs(shards_, [this, &mesh](std::size_t s, WireFd& fd) {
        for (std::size_t j = 0; j < shards_; ++j)
          if (j != s)
            for (WireFd& end : mesh[j]) end.reset();
        std::vector<WireFd> peers = std::move(mesh[s]);
        Channel ctrl(std::move(fd));
        runSnapshotWorker(s, ctrl, peers, -1);
      });
  workers_.resize(shards_);
  for (std::size_t s = 0; s < shards_; ++s) {
    workers_[s].pid = procs[s].pid;
    workers_[s].fd = Channel(std::move(procs[s].fd));
  }
  // The snapshot just adopted every block; drop the coordinator copies so a
  // later fetch can never read a stale one.
  if (blocks_) blocks_->clear();
}

void ShardedEngine::startTcp() {
  const int deadline = defaultTcpTimeoutMs();
  const bool remote = defaultTcpRemote();
  TcpListener rendezvous(defaultTcpPort());
  const std::uint64_t epoch = makeTcpEpoch();

  // Local mode: fork one dialing worker per shard. The children carry the
  // fork snapshot exactly like the socketpair path — only the *wires* are
  // different. Remote mode forks nothing; every shard must be attached by
  // `mpcspan_worker --connect host:port --shard k` within the deadline.
  std::vector<pid_t> pids;
  if (!remote) {
    const std::uint16_t port = rendezvous.port();
    for (std::size_t s = 0; s < shards_; ++s) {
      const pid_t pid = ::fork();
      if (pid < 0) {
        rendezvous.reset();  // dialing children fail fast on ECONNREFUSED
        for (const pid_t p : pids) {
          int st = 0;
          while (::waitpid(p, &st, 0) < 0 && errno == EINTR) {
          }
        }
        throw ShardError("ShardedEngine: fork failed");
      }
      if (pid == 0) {
        rendezvous.reset();  // the child dials; it must not hold the listener
        try {
          tcpWorkerMain(s, port, epoch, deadline);
        } catch (...) {
          std::_Exit(3);
        }
        std::_Exit(0);
      }
      pids.push_back(pid);
    }
  }

  std::vector<Worker> workers(shards_);
  std::vector<TcpPeerAddr> roster(shards_);
  try {
    // Collect one control hello per shard, in whatever order the dials
    // land. Every vetting failure (bad magic/version, stale epoch, rogue
    // shard id, duplicate) throws — a tcp rendezvous never limps along
    // with a partial mesh.
    for (std::size_t got = 0; got < shards_; ++got) {
      Channel ch(rendezvous.accept(deadline), deadline);
      const TcpHello hello = readControlHello(ch);
      if (remote) {
        // Remote attaches cannot know the epoch; they announce 0 and learn
        // the real one from the roster. A nonzero value is a worker from
        // some earlier (possibly dead) engine's rendezvous.
        if (hello.epoch != 0)
          throw ShardError(
              "tcp rendezvous: hello from a stale epoch (a worker of a "
              "previous engine dialed in)");
      } else if (hello.epoch != epoch) {
        throw ShardError(
            "tcp rendezvous: hello epoch mismatch (stale or foreign dial)");
      }
      if (hello.shard >= shards_)
        throw ShardError("tcp rendezvous: shard id " +
                         std::to_string(hello.shard) + " out of range (" +
                         std::to_string(shards_) + " shards)");
      if (workers[hello.shard].fd.valid())
        throw ShardError("tcp rendezvous: duplicate hello for shard " +
                         std::to_string(hello.shard));
      roster[hello.shard] = {
          remote ? peerHostOf(ch.fd()) : std::string("127.0.0.1"),
          hello.meshPort};
      workers[hello.shard].pid =
          remote ? -1 : pids[hello.shard];  // remote: not ours to reap
      workers[hello.shard].fd = std::move(ch);
    }
    for (std::size_t s = 0; s < shards_; ++s)
      sendRoster(workers[s].fd, epoch, roster);
    if (remote)
      for (std::size_t s = 0; s < shards_; ++s)
        sendWorkerSetup(workers[s].fd, numMachines_, shards_, s,
                        threadsPerShard_, *topology_, kernels_, blocks_);
  } catch (...) {
    // Unwind without zombies or hangs: closing the listener and every
    // accepted control channel gives each worker EOF/ECONNREFUSED within
    // its own deadline, then reap the locally forked ones.
    rendezvous.reset();
    for (Worker& w : workers) w.fd.reset();
    for (const pid_t pid : pids) {
      int st = 0;
      while (::waitpid(pid, &st, 0) < 0 && errno == EINTR) {
      }
    }
    throw;
  }
  workers_ = std::move(workers);
  // The snapshot (fork or SETUP frame) just adopted every block; drop the
  // coordinator copies so a later fetch can never read a stale one.
  if (blocks_) blocks_->clear();
}

void ShardedEngine::tcpWorkerMain(std::size_t s, std::uint16_t port,
                                  std::uint64_t epoch, int deadlineMs) {
  TcpListener meshListener(0);
  Channel ctrl(tcpConnect("127.0.0.1", port, deadlineMs), deadlineMs);
  sendControlHello(ctrl, TcpHello{s, epoch, meshListener.port()});
  const std::vector<TcpPeerAddr> roster = readRoster(ctrl, epoch, nullptr);
  if (roster.size() != shards_)
    throw ShardError("tcp roster: shard count mismatch");
  std::vector<WireFd> peers =
      formTcpMesh(s, epoch, meshListener, roster, deadlineMs);
  meshListener.reset();
  runSnapshotWorker(s, ctrl, peers, deadlineMs);
}

void ShardedEngine::runSnapshotWorker(std::size_t s, Channel& ctrl,
                                      std::vector<WireFd>& peers,
                                      int meshTimeoutMs) {
  WorkerConfig cfg;
  cfg.numMachines = numMachines_;
  cfg.shards = shards_;
  cfg.shard = s;
  cfg.threads = threadsPerShard_;
  cfg.topology = topology_;
  cfg.transport = transport_;
  cfg.shmArena = shmArena_.get();
  cfg.meshTimeoutMs = meshTimeoutMs;
  std::vector<KernelRegistration> kernels =
      kernels_ ? *kernels_ : std::vector<KernelRegistration>{};
  const std::size_t lo = shardBegin(s), hi = shardEnd(s);
  BlockStore store(numMachines_);
  if (blocks_) {
    for (const std::uint64_t h : blocks_->handles()) {
      store.create(h);
      for (std::size_t m = lo; m < hi; ++m)
        store.block(h, m) = blocks_->block(h, m);
    }
  }
  runResidentWorker(cfg, ctrl, peers, std::move(kernels), store);
}

void ShardedEngine::shutdownWorkers() noexcept {
  if (workers_.empty()) return;
  // Best-effort polite SHUTDOWN (only meaningful when the workers sit at the
  // command loop; a failed backend skips straight to the close below — a
  // mid-round worker must never parse SHUTDOWN as a barrier verdict).
  if (!failed_) {
    for (Worker& w : workers_) {
      if (!w.fd.valid()) continue;
      try {
        WireWriter bye;
        bye.u8(kOpShutdown);
        bye.sendFramed(w.fd);
      } catch (...) {
      }
    }
  }
  // Closing the fds unblocks any worker still reading (EOF -> clean exit);
  // exit status is deliberately ignored here — either the failure already
  // surfaced as ShardError, or this is a destructor. The host process must
  // not disown its children (SIGCHLD set to SIG_IGN or SA_NOCLDWAIT), or
  // waitpid cannot see a worker die mid-round.
  for (Worker& w : workers_) w.fd.reset();
  for (Worker& w : workers_) {
    if (w.pid < 0) continue;  // remote tcp worker: not ours to reap
    int st = 0;
    while (::waitpid(w.pid, &st, 0) < 0 && errno == EINTR) {
    }
  }
  workers_.clear();
}

void ShardedEngine::fail(const std::string& what) {
  failed_ = true;
  shutdownWorkers();
  throw ShardError(what);
}

template <typename Fn>
auto ShardedEngine::guarded(Fn&& io) -> decltype(io()) {
  try {
    return io();
  } catch (const ShardError& e) {
    fail(e.what());
  }
}

// ---------------------------------------------------------------------------
// Coordinator side.
// ---------------------------------------------------------------------------

namespace {

/// Collects one report per worker, in shard order.
template <class W>
std::vector<Report> collectReports(std::vector<W>& workers) {
  std::vector<Report> reports(workers.size());
  for (std::size_t s = 0; s < workers.size(); ++s)
    reports[s] = readReport(workers[s].fd);
  return reports;
}

/// The shared tail of every coordinator barrier: broadcasts the one-byte
/// go/abort verdict derived from the reports to every worker, and on abort
/// rethrows the lowest failed shard's error.
template <class W>
void broadcastVerdict(std::vector<W>& workers,
                      const std::vector<Report>& reports) {
  std::size_t firstErr = reports.size();
  for (std::size_t s = 0; s < reports.size(); ++s)
    if (reports[s].kind != kOk) {
      firstErr = s;
      break;
    }
  const std::uint8_t verdict = firstErr == reports.size() ? kGo : kAbort;
  for (W& w : workers) {
    WireWriter f;
    f.u8(verdict);
    f.sendFramed(w.fd);
  }
  if (verdict == kAbort)
    rethrow(reports[firstErr].kind, reports[firstErr].err);
}

}  // namespace

void ShardedEngine::registerKernel(std::size_t id, const std::string& name) {
  if (!started()) return;  // the fork snapshot will carry the table
  guarded([&] {
    for (Worker& w : workers_) {
      WireWriter f;
      f.u8(kOpRegisterKernel);
      f.u64(id);
      f.str(name);
      f.sendFramed(w.fd);
    }
    std::uint8_t kind = kOk;
    std::string err;
    for (Worker& w : workers_) {
      const Report rep = readReport(w.fd);
      if (rep.kind != kOk && kind == kOk) {
        kind = rep.kind;
        err = rep.err;
      }
    }
    if (kind != kOk) rethrow(kind, err);
  });
}

void ShardedEngine::stepKernel(std::size_t id, const std::vector<Word>& args,
                               std::size_t& roundWords, bool freePlacement) {
  start();
  // One epoch per STEP attempt, aborts included; the workers advance their
  // own counters in lockstep, so both sides can vet every frame of the
  // conversation against it (a verdict must never be appliable to the wrong
  // round's speculative state).
  const std::uint64_t epoch = stepEpoch_++;
  guarded([&] {
    for (Worker& w : workers_) {
      WireWriter f;
      f.u8(kOpStep);
      f.u64(epoch);
      f.u64(id);
      f.u8(freePlacement ? 1 : 0);
      writeArgs(f, args);
      f.sendFramed(w.fd);
    }

    // The one barrier: workers validate their own sources at phase A and
    // ship their sections before the verdict exists; each report carries
    // the source verdict plus (for topologies with inbound budgets) this
    // worker's per-destination word sums. The coordinator totals the sums,
    // runs the receiver-side validation, and broadcasts the one
    // commit/abort frame. Reports and verdicts echo the epoch so a desynced
    // stream fails loudly instead of committing round r against round
    // r+1's state.
    const bool wantSums = !freePlacement && topology_->needsInboundSums();
    std::vector<std::uint64_t> received(wantSums ? numMachines_ : 0, 0);
    std::vector<Report> reports(shards_);
    for (std::size_t s = 0; s < shards_; ++s) {
      spinAwaitReadable(workers_[s].fd.fd());
      WireReader r = WireReader::recvFramed(workers_[s].fd);
      reports[s].kind = r.u8();
      if (r.u64() != epoch)
        throw ShardError("step barrier: report epoch mismatch (shard " +
                         std::to_string(s) + " desynced)");
      if (reports[s].kind == kOk) {
        reports[s].words = r.u64();
        if (wantSums)
          for (std::size_t m = 0; m < numMachines_; ++m)
            received[m] += r.u64();
      } else {
        reports[s].err = r.str();
      }
    }
    std::size_t firstErr = reports.size();
    for (std::size_t s = 0; s < reports.size(); ++s)
      if (reports[s].kind != kOk) {
        firstErr = s;
        break;
      }
    std::uint8_t inKind = kOk;
    std::string inErr;
    if (firstErr == reports.size() && wantSums) {
      try {
        topology_->validateInbound(numMachines_, received);
      } catch (...) {
        inKind = classify(inErr);
      }
    }
    const bool ok = firstErr == reports.size() && inKind == kOk;
    for (Worker& w : workers_) {
      WireWriter f;
      f.u8(ok ? kGo : kAbort);
      f.u64(epoch);
      f.sendFramed(w.fd);
    }
    if (!ok) {
      if (firstErr != reports.size())
        rethrow(reports[firstErr].kind, reports[firstErr].err);
      rethrow(inKind, inErr);
    }
    roundWords = 0;
    for (const Report& rep : reports) roundWords += rep.words;
  });
}

void ShardedEngine::localKernel(std::size_t id, const std::vector<Word>& args) {
  start();
  guarded([&] {
    for (Worker& w : workers_) {
      WireWriter f;
      f.u8(kOpLocal);
      f.u64(id);
      writeArgs(f, args);
      f.sendFramed(w.fd);
    }
    std::uint8_t kind = kOk;
    std::string err;
    for (Worker& w : workers_) {
      const Report rep = readReport(w.fd);
      if (rep.kind != kOk && kind == kOk) {
        kind = rep.kind;
        err = rep.err;
      }
    }
    if (kind != kOk) rethrow(kind, err);
  });
}

std::vector<std::vector<Word>> ShardedEngine::fetchKernel(
    std::size_t id, const std::vector<Word>& args) {
  start();
  return guarded([&] {
    for (Worker& w : workers_) {
      WireWriter f;
      f.u8(kOpFetchKernel);
      f.u64(id);
      writeArgs(f, args);
      f.sendFramed(w.fd);
    }
    std::vector<std::vector<Word>> out(numMachines_);
    std::uint8_t kind = kOk;
    std::string err;
    for (std::size_t s = 0; s < shards_; ++s) {
      WireReader r = WireReader::recvFramed(workers_[s].fd);
      const std::uint8_t k = r.u8();
      if (k != kOk) {
        if (kind == kOk) {
          kind = k;
          err = r.str();
        }
        continue;
      }
      for (std::size_t m = shardBegin(s); m < shardEnd(s); ++m) {
        const std::uint64_t len = r.u64();
        if (len > r.remaining() / sizeof(Word))
          throw ShardError("shard wire frame: corrupt block length");
        out[m].resize(len);
        r.words(out[m].data(), len);
      }
    }
    if (kind != kOk) rethrow(kind, err);
    return out;
  });
}

void ShardedEngine::storeBlocks(std::uint64_t handle,
                                std::vector<std::vector<Word>> perMachine) {
  start();
  guarded([&] {
    for (std::size_t s = 0; s < shards_; ++s) {
      WireWriter f;
      f.u8(kOpStoreBlocks);
      f.u64(handle);
      for (std::size_t m = shardBegin(s); m < shardEnd(s); ++m) {
        f.u64(perMachine[m].size());
        f.words(perMachine[m].data(), perMachine[m].size());
      }
      f.sendFramed(workers_[s].fd);
    }
    std::uint8_t kind = kOk;
    std::string err;
    for (Worker& w : workers_) {
      const Report rep = readReport(w.fd);
      if (rep.kind != kOk && kind == kOk) {
        kind = rep.kind;
        err = rep.err;
      }
    }
    if (kind != kOk) rethrow(kind, err);
  });
}

std::vector<std::vector<Word>> ShardedEngine::fetchBlocks(
    std::uint64_t handle) {
  start();
  return guarded([&] {
    for (Worker& w : workers_) {
      WireWriter f;
      f.u8(kOpFetchBlocks);
      f.u64(handle);
      f.sendFramed(w.fd);
    }
    std::vector<std::vector<Word>> out(numMachines_);
    std::uint8_t kind = kOk;
    std::string err;
    for (std::size_t s = 0; s < shards_; ++s) {
      WireReader r = WireReader::recvFramed(workers_[s].fd);
      const std::uint8_t k = r.u8();
      if (k != kOk) {
        if (kind == kOk) {
          kind = k;
          err = r.str();
        }
        continue;
      }
      for (std::size_t m = shardBegin(s); m < shardEnd(s); ++m) {
        const std::uint64_t len = r.u64();
        if (len > r.remaining() / sizeof(Word))
          throw ShardError("shard wire frame: corrupt block length");
        out[m].resize(len);
        r.words(out[m].data(), len);
      }
    }
    if (kind != kOk) rethrow(kind, err);
    return out;
  });
}

void ShardedEngine::freeBlocks(std::uint64_t handle) {
  start();
  guarded([&] {
    for (Worker& w : workers_) {
      WireWriter f;
      f.u8(kOpFreeBlocks);
      f.u64(handle);
      f.sendFramed(w.fd);
    }
    for (Worker& w : workers_) (void)readReport(w.fd);
  });
}

std::vector<std::vector<Delivery>> ShardedEngine::fetchInboxes() {
  start();
  return guarded([&] {
    for (Worker& w : workers_) {
      WireWriter f;
      f.u8(kOpFetchInboxes);
      f.sendFramed(w.fd);
    }
    std::vector<std::vector<Delivery>> out(numMachines_);
    for (std::size_t s = 0; s < shards_; ++s) {
      WireReader r = WireReader::recvFramed(workers_[s].fd);
      parseRows<Delivery>(r, shardBegin(s), shardEnd(s), out);
    }
    return out;
  });
}

std::vector<std::vector<Delivery>> ShardedEngine::exchange(
    const std::vector<std::vector<Message>>& outboxes,
    std::size_t& roundWords) {
  const std::size_t n = numMachines_;

  // Bounds-check and bucket the cross-shard messages in one scan, appending
  // each row straight into its destination shard's section instead of
  // collecting refs and re-walking outboxes[src][pos] per message. Nothing
  // has been sent when a rogue destination throws std::invalid_argument, so
  // the engine (and the workers) stay untouched, exactly like in-process.
  std::vector<WireWriter> cross(shards_);
  std::vector<std::uint64_t> crossCount(shards_, 0);
  std::vector<std::size_t> ownBytes(shards_, 0);  // each shard's writeRows span
  for (std::size_t src = 0; src < n; ++src) {
    const std::size_t home = shardOf(src);
    for (const Message& msg : outboxes[src]) {
      if (msg.dst >= n)
        throw std::invalid_argument("RoundEngine: message to unknown machine");
      ownBytes[home] += 2 * sizeof(std::uint64_t) + sizeof(Word) * msg.payload.size();
      const std::size_t t = shardOf(msg.dst);
      if (t == home) continue;
      cross[t].row(src, msg.dst, msg.payload.data(), msg.payload.size());
      ++crossCount[t];
    }
  }

  start();
  return guarded([&] {
    for (std::size_t s = 0; s < shards_; ++s) {
      WireWriter f;
      // Exact frame size: op byte, a count word per own machine, the
      // own-outbox rows, the cross count word, the cross section.
      f.reserve(1 + 8 * (shardEnd(s) - shardBegin(s)) + ownBytes[s] + 8 +
                cross[s].size());
      f.u8(kOpExchange);
      for (std::size_t m = shardBegin(s); m < shardEnd(s); ++m)
        writeRows(f, outboxes[m]);
      f.u64(crossCount[s]);
      f.append(cross[s]);
      f.sendFramed(workers_[s].fd);
    }

    // Validation barrier: every slice must pass before anyone commits; one
    // failed shard aborts the round for all, and the workers stay alive.
    const std::vector<Report> reports = collectReports(workers_);
    broadcastVerdict(workers_, reports);

    // Commit: merge the delivery fragments in shard (= destination) order.
    std::vector<std::vector<Delivery>> inbox(n);
    for (std::size_t s = 0; s < shards_; ++s) {
      WireReader r = WireReader::recvFramed(workers_[s].fd);
      parseRows<Delivery>(r, shardBegin(s), shardEnd(s), inbox);
    }
    roundWords = 0;
    for (const Report& rep : reports) roundWords += rep.words;
    return inbox;
  });
}

}  // namespace mpcspan::runtime::shard
