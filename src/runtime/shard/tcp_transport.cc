#include "runtime/shard/tcp_transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <utility>

#include "runtime/shard/worker_loop.hpp"
#include "util/socket.hpp"

namespace mpcspan::runtime::shard {

namespace {

long envLong(const char* name, long fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  const long parsed = std::strtol(v, &end, 10);
  return (end != nullptr && *end == '\0') ? parsed : fallback;
}

[[noreturn]] void throwErrno(const std::string& what) {
  throw ShardError(what + ": " + std::strerror(errno));
}

/// SO_KEEPALIVE: an idle channel to a silently dead remote eventually
/// errors instead of staying half-open forever. (util/socket already sets
/// TCP_NODELAY, so barrier bytes never sit in Nagle buffers.)
void setKeepalive(int fd) {
  int one = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_KEEPALIVE, &one, sizeof(one));
}

}  // namespace

int defaultTcpTimeoutMs() {
  const long ms = envLong("MPCSPAN_TCP_TIMEOUT_MS", 30000);
  return ms > 0 ? static_cast<int>(ms) : 30000;
}

std::uint16_t defaultTcpPort() {
  const long p = envLong("MPCSPAN_TCP_PORT", 0);
  return (p > 0 && p <= 65535) ? static_cast<std::uint16_t>(p) : 0;
}

bool defaultTcpRemote() { return envLong("MPCSPAN_TCP_REMOTE", 0) == 1; }

std::uint64_t makeTcpEpoch() {
  static std::atomic<std::uint64_t> counter{0};
  // pid in the high bits separates concurrent engines on one host; the
  // counter separates successive engines in one process; the clock guards
  // against pid reuse across coordinator restarts.
  std::uint64_t e = (static_cast<std::uint64_t>(::getpid()) << 40) ^
                    (counter.fetch_add(1) << 20) ^
                    static_cast<std::uint64_t>(std::time(nullptr));
  if (e == 0) e = 1;  // 0 is the "attach me" sentinel
  return e;
}

bool isLoopbackHost(const std::string& host) {
  if (host == "localhost") return true;
  in_addr addr{};
  return ::inet_pton(AF_INET, host.c_str(), &addr) == 1 &&
         (ntohl(addr.s_addr) >> 24) == 127;
}

TcpListener::TcpListener(std::uint16_t port, bool loopbackOnly) {
  std::string err;
  fd_ = util::listenTcp(loopbackOnly ? "127.0.0.1" : "0.0.0.0", port, 0,
                        &port_, err);
  if (!fd_.valid()) throw ShardError("tcp listener " + err);
}

WireFd TcpListener::accept(int deadlineMs) {
  const util::DeadlineBudget budget(deadlineMs);
  for (;;) {
    const util::IoStatus st =
        util::awaitFd(fd_.fd(), POLLIN, budget, util::IoPacing{});
    if (st == util::IoStatus::kTimeout)
      throw ShardError("tcp rendezvous accept timed out after " +
                       std::to_string(deadlineMs) + " ms");
    if (st != util::IoStatus::kOk) throwErrno("tcp rendezvous accept poll");
    WireFd conn = util::acceptOn(fd_.fd());
    if (conn.valid()) {
      setKeepalive(conn.fd());
      return conn;
    }
    // Readable but nothing to take (the dialer gave up in between): wait on.
    if (errno != EAGAIN && errno != EWOULDBLOCK && errno != ECONNABORTED)
      throwErrno("tcp rendezvous accept");
  }
}

WireFd tcpConnect(const std::string& host, std::uint16_t port,
                  int deadlineMs) {
  std::string err;
  WireFd fd = util::dialTcp(host, port, deadlineMs, err);
  if (!fd.valid()) throw ShardError("tcp connect to " + err);
  setKeepalive(fd.fd());
  return fd;
}

void sendControlHello(Channel& ch, const TcpHello& hello) {
  WireWriter w;
  w.u64(kTcpMagic);
  w.u8(kTcpVersion);
  w.u64(hello.shard);
  w.u64(hello.epoch);
  w.u64(hello.meshPort);
  w.sendFramed(ch);
}

namespace {

void vetMagicVersion(WireReader& r, const char* what) {
  if (r.u64() != kTcpMagic)
    throw ShardError(std::string(what) +
                     ": bad magic (not an mpcspan shard peer)");
  const std::uint8_t version = r.u8();
  if (version != kTcpVersion)
    throw ShardError(std::string(what) + ": protocol version " +
                     std::to_string(version) + " != " +
                     std::to_string(kTcpVersion) +
                     " (mixed builds across machines?)");
}

}  // namespace

TcpHello readControlHello(Channel& ch) {
  WireReader r = WireReader::recvFramed(ch);
  vetMagicVersion(r, "tcp control handshake");
  TcpHello hello;
  hello.shard = r.u64();
  hello.epoch = r.u64();
  const std::uint64_t meshPort = r.u64();
  if (meshPort == 0 || meshPort > 65535)
    throw ShardError("tcp control handshake: implausible mesh port " +
                     std::to_string(meshPort));
  hello.meshPort = static_cast<std::uint16_t>(meshPort);
  return hello;
}

void sendRoster(Channel& ch, std::uint64_t epoch,
                const std::vector<TcpPeerAddr>& roster) {
  WireWriter w;
  w.u64(kTcpMagic);
  w.u8(kTcpVersion);
  w.u64(epoch);
  w.u64(roster.size());
  for (const TcpPeerAddr& peer : roster) {
    w.str(peer.host);
    w.u64(peer.port);
  }
  w.sendFramed(ch);
}

std::vector<TcpPeerAddr> readRoster(Channel& ch, std::uint64_t expectedEpoch,
                                    std::uint64_t* epochOut) {
  WireReader r = WireReader::recvFramed(ch);
  vetMagicVersion(r, "tcp roster");
  const std::uint64_t epoch = r.u64();
  if (expectedEpoch != 0 && epoch != expectedEpoch)
    throw ShardError("tcp roster: epoch mismatch (stale rendezvous?)");
  const std::uint64_t count = r.u64();
  if (count == 0 || count > r.remaining())
    throw ShardError("tcp roster: implausible shard count");
  std::vector<TcpPeerAddr> roster(count);
  for (TcpPeerAddr& peer : roster) {
    peer.host = r.str();
    const std::uint64_t port = r.u64();
    if (port == 0 || port > 65535)
      throw ShardError("tcp roster: implausible mesh port");
    peer.port = static_cast<std::uint16_t>(port);
  }
  if (epochOut != nullptr) *epochOut = epoch;
  return roster;
}

std::vector<WireFd> formTcpMesh(std::size_t self, std::uint64_t epoch,
                                TcpListener& meshListener,
                                const std::vector<TcpPeerAddr>& roster,
                                int deadlineMs) {
  const std::size_t count = roster.size();
  std::vector<WireFd> peers(count);
  // Dial every lower shard; its hello identifies us, its ack confirms the
  // epoch matched on the far side.
  for (std::size_t t = 0; t < self; ++t) {
    Channel ch(tcpConnect(roster[t].host, roster[t].port, deadlineMs),
               deadlineMs);
    WireWriter w;
    w.u64(kTcpMagic);
    w.u8(kTcpVersion);
    w.u64(self);
    w.u64(epoch);
    w.sendFramed(ch);
    std::uint8_t ack = 0;
    ch.readAll(&ack, 1);
    if (ack != 1)
      throw ShardError("tcp mesh handshake: shard " + std::to_string(t) +
                       " refused the dial");
    peers[t] = ch.release();
  }
  // Accept every higher shard; the hello says which one arrived (dial order
  // across peers is not deterministic).
  for (std::size_t pending = count - self - 1; pending > 0; --pending) {
    Channel ch(meshListener.accept(deadlineMs), deadlineMs);
    WireReader r = WireReader::recvFramed(ch);
    vetMagicVersion(r, "tcp mesh handshake");
    const std::uint64_t from = r.u64();
    const std::uint64_t fromEpoch = r.u64();
    if (fromEpoch != epoch)
      throw ShardError("tcp mesh handshake: dial from stale epoch");
    if (from <= self || from >= count || peers[from].valid())
      throw ShardError("tcp mesh handshake: unexpected shard id " +
                       std::to_string(from));
    const std::uint8_t ack = 1;
    ch.writeAll(&ack, 1);
    peers[from] = ch.release();
  }
  // Released Channel fds are nonblocking: meshExchange's pumps need that.
  return peers;
}

void attachTcpWorker(const std::string& host, std::uint16_t port,
                     std::size_t shard, std::uint64_t epoch, int timeoutMs) {
  // Mesh listener first: its port rides in the control hello. A worker that
  // reached its coordinator over loopback has only same-host peers.
  TcpListener meshListener(0, isLoopbackHost(host));
  Channel ctrl(tcpConnect(host, port, timeoutMs), timeoutMs);
  sendControlHello(ctrl, {shard, epoch, meshListener.port()});
  std::uint64_t meshEpoch = 0;
  const std::vector<TcpPeerAddr> roster = readRoster(ctrl, epoch, &meshEpoch);
  WorkerSetup setup = readWorkerSetup(ctrl);
  if (setup.cfg.shard != shard)
    throw ShardError("tcp worker: coordinator assigned shard " +
                     std::to_string(setup.cfg.shard) + ", dialed as " +
                     std::to_string(shard));
  if (roster.size() != setup.cfg.shards)
    throw ShardError("tcp worker: roster size mismatch");
  setup.cfg.meshTimeoutMs = timeoutMs;
  std::vector<WireFd> peers =
      formTcpMesh(shard, meshEpoch, meshListener, roster, timeoutMs);
  meshListener.reset();
  runResidentWorker(setup.cfg, ctrl, peers, std::move(setup.kernels),
                    *setup.store);
}

std::string peerHostOf(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getpeername(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0)
    throwErrno("tcp getpeername");
  char buf[INET_ADDRSTRLEN] = {0};
  if (::inet_ntop(AF_INET, &addr.sin_addr, buf, sizeof(buf)) == nullptr)
    throwErrno("tcp inet_ntop");
  return std::string(buf);
}

}  // namespace mpcspan::runtime::shard
