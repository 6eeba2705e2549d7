#include "runtime/shard/sharded_engine.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <utility>

#include "runtime/env.hpp"
#include "runtime/shard/protocol.hpp"
#include "runtime/shard/tcp_transport.hpp"
#include "runtime/shard/worker_loop.hpp"
#include "runtime/thread_pool.hpp"

namespace mpcspan::runtime::shard {

namespace {
/// Closes every fd above stderr (in a freshly forked child).
void closeInheritedFds() {
  if (::close_range(3, ~0u, 0) == 0) return;
  const long maxFd = ::sysconf(_SC_OPEN_MAX);
  for (int fd = 3; fd < (maxFd > 0 ? maxFd : 1024); ++fd) ::close(fd);
}
}  // namespace

ShardedEngine::~ShardedEngine() { shutdownWorkers(); }

std::size_t ShardedEngine::shardBegin(std::size_t s) const {
  return shardRangeBegin(numMachines_, shards_, s);
}

std::size_t ShardedEngine::defaultShards() {
  return envNumber("MPCSPAN_SHARDS", 1, kMaxThreads, 1);
}

std::vector<pid_t> ShardedEngine::workerPids() const {
  std::vector<pid_t> pids;
  pids.reserve(workers_.size());
  for (const Worker& w : workers_) pids.push_back(w.pid);
  return pids;
}

ShardedEngine::ShardedEngine(std::size_t numMachines, std::size_t shards,
                             std::size_t threadsPerShard,
                             MpcTopology topology)
    : numMachines_(numMachines),
      shards_(shards),
      threadsPerShard_(threadsPerShard == 0 ? 1 : threadsPerShard),
      topology_(topology) {
  if (numMachines_ == 0)
    throw std::invalid_argument("ShardedEngine: numMachines must be positive");
  if (shards_ < 2 || shards_ > numMachines_)
    throw std::invalid_argument(
        "ShardedEngine: shards must be in [2, numMachines]");

  const int deadline = defaultTcpTimeoutMs();
  const bool remote = defaultTcpRemote();
  // Forked workers dial over loopback, so only remote mode listens beyond
  // this host.
  TcpListener rendezvous(defaultTcpPort(), /*loopbackOnly=*/!remote);
  const std::uint64_t epoch = makeTcpEpoch();

  // Local mode: fork one worker per shard, which attaches exactly as a
  // remote `mpcspan_worker --connect host:port --shard k` does (the one
  // attachTcpWorker path) except that it announces the real epoch. Remote
  // mode forks nothing; every shard must attach within the deadline.
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
        // The child needs no inherited fd: it dials the coordinator and gets
        // everything else over that connection. Holding the parent's fds
        // (the listener, earlier engines' control channels) would keep those
        // peers from ever seeing EOF — an earlier engine's idle worker would
        // then outlive that engine's failure until this one dies.
        closeInheritedFds();
        try {
          attachTcpWorker("127.0.0.1", port, s, epoch, deadline);
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
    for (std::size_t s = 0; s < shards_; ++s) {
      sendRoster(workers[s].fd, epoch, roster);
      sendWorkerSetup(workers[s].fd, numMachines_, shards_, s,
                      threadsPerShard_, topology_);
    }
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
  if (failed_)
    throw ShardError(
        "ShardedEngine: shard backend is down (a worker died earlier)");
  try {
    return io();
  } catch (const ShardError& e) {
    fail(e.what());
  }
}

// ---------------------------------------------------------------------------
// Coordinator side.
// ---------------------------------------------------------------------------

void ShardedEngine::requestAll(
    const std::function<WireWriter(std::size_t)>& frameFor) {
  guarded([&] {
    for (std::size_t s = 0; s < shards_; ++s)
      frameFor(s).sendFramed(workers_[s].fd);
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

std::vector<std::vector<Word>> ShardedEngine::fetchPerMachine(
    const WireWriter& request) {
  return guarded([&] {
    for (Worker& w : workers_) request.sendFramed(w.fd);
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

void ShardedEngine::announceKernel(std::size_t id, const std::string& name) {
  requestAll([&](std::size_t) {
    WireWriter f;
    f.u8(kOpRegisterKernel);
    f.u64(id);
    f.str(name);
    return f;
  });
}

void ShardedEngine::stepKernel(std::size_t id, const std::vector<Word>& args,
                               std::size_t& roundWords) {
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
      writeArgs(f, args);
      f.sendFramed(w.fd);
    }

    // The one barrier: workers validate their own sources at phase A and
    // ship their sections before the verdict exists; each report carries
    // the source verdict plus this worker's per-destination word sums. The
    // coordinator totals the sums, runs the receiver-side validation, and
    // broadcasts the one commit/abort frame. Reports and verdicts echo the epoch so a desynced
    // stream fails loudly instead of committing round r against round
    // r+1's state.
    std::vector<std::uint64_t> received(numMachines_, 0);
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
        for (std::size_t m = 0; m < numMachines_; ++m) received[m] += r.u64();
      } else {
        reports[s].err = r.str();
      }
    }
    const std::size_t failed = failedReport(reports);
    std::uint8_t inKind = kOk;
    std::string inErr;
    if (failed == reports.size()) {
      try {
        topology_.validateInbound(received);
      } catch (...) {
        inKind = classify(inErr);
      }
    }
    const bool ok = failed == reports.size() && inKind == kOk;
    for (Worker& w : workers_) {
      WireWriter f;
      f.u8(ok ? kGo : kAbort);
      f.u64(epoch);
      f.sendFramed(w.fd);
    }
    if (!ok) {
      if (failed != reports.size())
        rethrow(reports[failed].kind, reports[failed].err);
      rethrow(inKind, inErr);
    }
    roundWords = 0;
    for (const Report& rep : reports) roundWords += rep.words;
  });
}

void ShardedEngine::localKernel(std::size_t id, const std::vector<Word>& args) {
  requestAll([&](std::size_t) {
    WireWriter f;
    f.u8(kOpLocal);
    f.u64(id);
    writeArgs(f, args);
    return f;
  });
}

std::vector<std::vector<Word>> ShardedEngine::fetchKernel(
    std::size_t id, const std::vector<Word>& args) {
  WireWriter f;
  f.u8(kOpFetchKernel);
  f.u64(id);
  writeArgs(f, args);
  return fetchPerMachine(f);
}

void ShardedEngine::storeBlocks(std::uint64_t handle,
                                std::vector<std::vector<Word>> perMachine) {
  requestAll([&](std::size_t s) {
    WireWriter f;
    f.u8(kOpStoreBlocks);
    writeBlockSlice(f, handle, perMachine, shardBegin(s), shardEnd(s));
    return f;
  });
}

std::vector<std::vector<Word>> ShardedEngine::fetchBlocks(
    std::uint64_t handle) {
  WireWriter f;
  f.u8(kOpFetchBlocks);
  f.u64(handle);
  return fetchPerMachine(f);
}

void ShardedEngine::freeBlocks(std::uint64_t handle) {
  requestAll([&](std::size_t) {
    WireWriter f;
    f.u8(kOpFreeBlocks);
    f.u64(handle);
    return f;
  });
}

std::vector<WordRows> ShardedEngine::fetchInboxes() {
  return guarded([&] {
    for (Worker& w : workers_) {
      WireWriter f;
      f.u8(kOpFetchInboxes);
      f.sendFramed(w.fd);
    }
    std::vector<WordRows> out;
    out.reserve(numMachines_);
    for (std::size_t s = 0; s < shards_; ++s) {
      WireReader r = WireReader::recvFramed(workers_[s].fd);
      for (WordRows& inbox :
           readInboxes(r, shardEnd(s) - shardBegin(s), numMachines_))
        out.push_back(std::move(inbox));
    }
    return out;
  });
}

}  // namespace mpcspan::runtime::shard
