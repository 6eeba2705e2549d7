// The tcp rendezvous and its handshakes: every failure mode of a real
// network — refused dial, accept timeout, a stray client speaking garbage,
// a worker from another protocol version, a mesh dial from a stale epoch —
// surfaces as ShardError within the deadline, never a hang; listeners that
// only same-host peers dial bind loopback only — plus the Channel contract
// every shard stream stands on: one nonblocking mode, a deadline that
// bounds a transfer even under a signal storm, and large frames in both
// directions at once — and the SETUP decoder every worker runs on its first
// frame, which must decode or reject every truncation, single-bit flip and
// splice of two frames. Engine-level mesh behavior lives in
// test_peer_exchange.
#include "runtime/shard/tcp_transport.hpp"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <exception>
#include <future>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "runtime/kernel.hpp"
#include "runtime/shard/transport.hpp"
#include "runtime/shard/wire.hpp"
#include "runtime/shard/worker_loop.hpp"
#include "runtime/topology.hpp"

namespace mpcspan {
namespace {

using runtime::shard::Channel;
using runtime::shard::attachTcpWorker;
using runtime::shard::formTcpMesh;
using runtime::shard::isLoopbackHost;
using runtime::shard::kTcpMagic;
using runtime::shard::kTcpVersion;
using runtime::shard::readControlHello;
using runtime::shard::ShardError;
using runtime::shard::tcpConnect;
using runtime::shard::TcpListener;
using runtime::shard::TcpPeerAddr;
using runtime::shard::WireFd;
using runtime::shard::WireReader;
using runtime::shard::WireWriter;
using runtime::shard::WorkerSetup;

// --- Failure modes. Every one must be a ShardError within the deadline. ---

TEST(TcpTransport, RefusedDialThrowsShardError) {
  // Grab an ephemeral port the kernel just proved free, close the
  // listener, and dial it: connection refused, immediately.
  std::uint16_t deadPort = 0;
  {
    TcpListener l(0, /*loopbackOnly=*/true);
    deadPort = l.port();
  }
  EXPECT_THROW(tcpConnect("127.0.0.1", deadPort, 2000), ShardError);
}

TEST(TcpTransport, AcceptDeadlineExpiresAsShardError) {
  TcpListener l(0, /*loopbackOnly=*/true);
  EXPECT_THROW(l.accept(/*deadlineMs=*/50), ShardError);
}

TEST(TcpTransport, StrayClientGarbageRejectedAtControlHello) {
  TcpListener l(0, /*loopbackOnly=*/true);
  std::thread stray([&] {
    try {
      WireFd fd = tcpConnect("127.0.0.1", l.port(), 2000);
      const char junk[32] = "GET / HTTP/1.1\r\n\r\n";
      (void)::send(fd.fd(), junk, sizeof junk, MSG_NOSIGNAL);
    } catch (...) {
      // The acceptor may slam the door first; either way is a pass.
    }
  });
  Channel ch(l.accept(2000), 2000);
  EXPECT_THROW(readControlHello(ch), ShardError);
  stray.join();
}

TEST(TcpTransport, OlderProtocolVersionRejectedAtControlHello) {
  // A worker from a build with another frame layout announces its version
  // in the hello; the coordinator must refuse it before any SETUP or STEP
  // frame is exchanged.
  TcpListener l(0, /*loopbackOnly=*/true);
  std::thread stale([&] {
    try {
      Channel ch(tcpConnect("127.0.0.1", l.port(), 2000), 2000);
      WireWriter w;
      w.u64(kTcpMagic);
      w.u8(static_cast<std::uint8_t>(kTcpVersion - 1));
      w.u64(0);      // shard
      w.u64(0);      // epoch: remote attach
      w.u64(40000);  // mesh port
      w.sendFramed(ch);
    } catch (...) {
      // The acceptor may close first; either way is a pass.
    }
  });
  Channel ch(l.accept(2000), 2000);
  EXPECT_THROW(readControlHello(ch), ShardError);
  stale.join();
}

TEST(TcpTransport, StaleEpochMeshDialRejectedBothSides) {
  // Shard 1 dials shard 0's mesh listener carrying the wrong epoch: the
  // acceptor must reject the handshake as stale, and the dialer — whose
  // ack never arrives — must fail its own handshake rather than hang.
  constexpr std::uint64_t kGoodEpoch = 0x1234;
  constexpr std::uint64_t kBadEpoch = 0x9999;
  TcpListener mesh0(0, /*loopbackOnly=*/true);
  TcpListener mesh1(0, /*loopbackOnly=*/true);
  std::vector<TcpPeerAddr> roster{{"127.0.0.1", mesh0.port()},
                                  {"127.0.0.1", mesh1.port()}};

  std::exception_ptr acceptErr;
  std::thread acceptor([&] {
    try {
      formTcpMesh(/*self=*/0, kGoodEpoch, mesh0, roster, 4000);
    } catch (...) {
      acceptErr = std::current_exception();
    }
  });
  EXPECT_THROW(formTcpMesh(/*self=*/1, kBadEpoch, mesh1, roster, 4000),
               ShardError);
  acceptor.join();
  ASSERT_TRUE(acceptErr);
  EXPECT_THROW(std::rethrow_exception(acceptErr), ShardError);
}

// --- Bind addresses. ---

/// The IPv4 address and port a socket is bound to, read back with
/// getsockname; port 0 if `fd` is not a bound IPv4 socket.
std::pair<std::string, std::uint16_t> boundAddress(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0 ||
      addr.sin_family != AF_INET)
    return {std::string(), 0};
  char buf[INET_ADDRSTRLEN] = {0};
  ::inet_ntop(AF_INET, &addr.sin_addr, buf, sizeof(buf));
  return {std::string(buf), ntohs(addr.sin_port)};
}

TEST(TcpTransport, ListenersBindLoopbackUnlessAPeerIsRemote) {
  // A coordinator that forks its own workers listens on 127.0.0.1 only, so
  // no other host can dial into its rendezvous; a coordinator awaiting
  // remote attaches listens on every interface.
  TcpListener local(0, /*loopbackOnly=*/true);
  EXPECT_EQ(boundAddress(local.fd()),
            std::make_pair(std::string("127.0.0.1"), local.port()));
  TcpListener anyHost(0, /*loopbackOnly=*/false);
  EXPECT_EQ(boundAddress(anyHost.fd()),
            std::make_pair(std::string("0.0.0.0"), anyHost.port()));
  for (const char* host : {"127.0.0.1", "127.8.9.10", "localhost"})
    EXPECT_TRUE(isLoopbackHost(host)) << host;
  for (const char* host :
       {"0.0.0.0", "10.0.0.7", "192.168.1.127", "128.0.0.1", "", "example.org"})
    EXPECT_FALSE(isLoopbackHost(host)) << host;
}

TEST(TcpTransport, WorkerThatDialedLoopbackListensOnLoopback) {
  // A worker — a forked one, or `mpcspan_worker --connect 127.0.0.1:P` —
  // that reached its coordinator over loopback has only same-host peers, so
  // the mesh listener it announces must be bound to 127.0.0.1. This test
  // plays the coordinator: it reads the hello, finds the announced mesh
  // listener among this process's fds, then hangs up.
  TcpListener coordinator(0, /*loopbackOnly=*/true);
  std::exception_ptr workerErr;
  std::thread worker([&] {
    try {
      attachTcpWorker("127.0.0.1", coordinator.port(), /*shard=*/0,
                      /*epoch=*/0, /*timeoutMs=*/4000);
    } catch (...) {
      workerErr = std::current_exception();
    }
  });
  {
    Channel ch(coordinator.accept(4000), 4000);
    const std::uint16_t meshPort = readControlHello(ch).meshPort;
    std::vector<std::string> listeners;
    for (int fd = 0; fd < 1024; ++fd) {
      int listening = 0;
      socklen_t len = sizeof(listening);
      if (::getsockopt(fd, SOL_SOCKET, SO_ACCEPTCONN, &listening, &len) != 0 ||
          listening == 0)
        continue;
      const auto [host, port] = boundAddress(fd);
      if (port == meshPort) listeners.push_back(host);
    }
    EXPECT_EQ(listeners, std::vector<std::string>{"127.0.0.1"});
  }  // hang up: the worker's roster read fails
  worker.join();
  ASSERT_TRUE(workerErr);
  EXPECT_THROW(std::rethrow_exception(workerErr), ShardError);
}

// --- The Channel contract. ---

void ignoreSignal(int) {}

TEST(Channel, SignalStormCannotExtendTheDeadline) {
  // A steady signal source (a profiler, SIGHUP reloads) interrupts every
  // poll with EINTR. The read must still expire on its deadline: a restart
  // waits only for the time left, never the whole deadline again.
  struct sigaction sa {};
  struct sigaction old {};
  sa.sa_handler = ignoreSignal;
  ::sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART: every signal surfaces as EINTR
  ASSERT_EQ(::sigaction(SIGUSR1, &sa, &old), 0);

  WireFd ours;
  WireFd silentPeer;
  runtime::shard::makeSocketPair(ours, silentPeer);
  std::promise<pthread_t> readerThread;
  std::promise<bool> outcome;  // true: the read ended in ShardError
  std::atomic<bool> release{false};
  auto reader = std::async(std::launch::async, [&] {
    readerThread.set_value(::pthread_self());
    Channel ch(std::move(ours), /*deadlineMs=*/200);
    std::uint8_t byte = 0;
    bool threw = false;
    try {
      ch.readAll(&byte, 1);
    } catch (const ShardError&) {
      threw = true;
    }
    outcome.set_value(threw);
    // Stay alive until the storm has stopped targeting this thread.
    while (!release.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  });
  const pthread_t target = readerThread.get_future().get();
  std::atomic<bool> calm{false};
  std::thread storm([&] {
    while (!calm.load()) {
      ::pthread_kill(target, SIGUSR1);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });

  std::future<bool> result = outcome.get_future();
  const bool inTime =
      result.wait_for(std::chrono::seconds(2)) == std::future_status::ready;
  // A read that outlived the bound would hang the test: EOF ends it.
  if (!inTime) silentPeer.reset();
  const bool threw = result.get();
  calm = true;
  storm.join();
  release = true;
  reader.get();
  ::sigaction(SIGUSR1, &old, nullptr);
  EXPECT_TRUE(inTime) << "a 200 ms read was still waiting after 2 s";
  EXPECT_TRUE(threw);
}

TEST(Channel, NoDeadlineCarriesBigFramesBothWaysAtOnce) {
  // One 8 MiB frame each way at the same time, far past the socket buffer:
  // both writers block on a full buffer until the readers drain it, and
  // both frames arrive intact.
  constexpr std::size_t kBytes = std::size_t{8} << 20;
  WireFd endA;
  WireFd endB;
  runtime::shard::makeSocketPair(endA, endB);
  Channel a(std::move(endA));
  Channel b(std::move(endB));
  const auto pattern = [](std::uint8_t seed) {
    std::vector<std::uint8_t> bytes(kBytes);
    for (std::size_t i = 0; i < kBytes; ++i)
      bytes[i] = static_cast<std::uint8_t>(i * 131 + seed);
    WireWriter w;
    w.bytes(bytes.data(), bytes.size());
    return w;
  };
  const WireWriter toB = pattern(1);
  const WireWriter toA = pattern(2);
  auto sendA = std::async(std::launch::async, [&] { toB.sendFramed(a); });
  auto sendB = std::async(std::launch::async, [&] { toA.sendFramed(b); });
  auto atB = std::async(std::launch::async,
                        [&] { return WireReader::recvFramed(b); });
  WireReader atA = WireReader::recvFramed(a);
  sendA.get();
  sendB.get();
  WireReader fromA = atB.get();
  ASSERT_EQ(atA.remaining(), kBytes);
  ASSERT_EQ(fromA.remaining(), kBytes);
  EXPECT_EQ(std::memcmp(atA.raw(kBytes), toA.data(), kBytes), 0);
  EXPECT_EQ(std::memcmp(fromA.raw(kBytes), toB.data(), kBytes), 0);
}

TEST(Channel, PeerClosingMidFrameIsShardError) {
  WireFd ours;
  WireFd peer;
  runtime::shard::makeSocketPair(ours, peer);
  Channel ch(std::move(ours));
  // Announce 1 MiB, send 100 bytes of it, and vanish.
  const std::uint64_t len = std::uint64_t{1} << 20;
  const std::uint8_t part[100] = {};
  ASSERT_EQ(::send(peer.fd(), &len, sizeof len, MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof len));
  ASSERT_EQ(::send(peer.fd(), part, sizeof part, MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof part));
  peer.reset();
  EXPECT_THROW(WireReader::recvFramed(ch), ShardError);
  // Writing to the vanished peer fails the same way, with no SIGPIPE.
  WireWriter w;
  w.u64(7);
  EXPECT_THROW(w.sendFramed(ch), ShardError);
}

// --- The SETUP decoder. ---

/// The body of the SETUP frame sendWorkerSetup writes for these arguments.
std::vector<std::uint8_t> encodeSetup(std::size_t numMachines,
                                      std::size_t shards, std::size_t shard,
                                      std::size_t threads,
                                      const runtime::MpcTopology& topo,
                                      const std::vector<std::string>& kernels,
                                      const runtime::BlockStore& store) {
  WireFd txEnd;
  WireFd rxEnd;
  runtime::shard::makeSocketPair(txEnd, rxEnd);
  Channel tx(std::move(txEnd));
  Channel rx(std::move(rxEnd));
  runtime::shard::sendWorkerSetup(tx, numMachines, shards, shard, threads,
                                  topo, &kernels, &store);
  WireReader r = WireReader::recvFramed(rx);
  const std::size_t n = r.remaining();
  const std::uint8_t* bytes = r.raw(n);
  return std::vector<std::uint8_t>(bytes, bytes + n);
}

/// A SETUP body: shard 1 of 3 over 8 machines (slice [3, 6)), 2 lanes, an
/// MPC topology, two kernel names, and two block handles with blocks of
/// different lengths.
std::vector<std::uint8_t> setupBody() {
  runtime::MpcTopology topo(48);
  const std::vector<std::string> kernels{"test.alpha", "mpcspan.beta"};
  runtime::BlockStore store(8);
  for (const std::uint64_t h : {3u, 9u}) {
    store.create(h);
    for (std::size_t m = 0; m < 8; ++m)
      store.block(h, m) = std::vector<Word>(m % 3, h * 100 + m);
  }
  return encodeSetup(8, 3, 1, 2, topo, kernels, store);
}

/// A SETUP body with other dimensions throughout: shard 2 of 4 over 12
/// machines (slice [6, 9)), 1 lane, another word budget S, one kernel name,
/// and three block handles.
std::vector<std::uint8_t> otherSetupBody() {
  runtime::MpcTopology topo(20000);
  const std::vector<std::string> kernels{"mpcspan.gamma.longer.name"};
  runtime::BlockStore store(12);
  for (const std::uint64_t h : {1u, 4u, 7u}) {
    store.create(h);
    for (std::size_t m = 0; m < 12; ++m)
      store.block(h, m) = std::vector<Word>((m + h) % 4, h ^ (m << 8));
  }
  return encodeSetup(12, 4, 2, 1, topo, kernels, store);
}

/// Frames `body` (with its true length) and decodes it the way a tcp
/// worker does.
WorkerSetup decodeSetup(const std::vector<std::uint8_t>& body) {
  WireFd txEnd;
  WireFd rxEnd;
  runtime::shard::makeSocketPair(txEnd, rxEnd);
  Channel tx(std::move(txEnd));
  Channel rx(std::move(rxEnd));
  WireWriter w;
  w.bytes(body.data(), body.size());
  w.sendFramed(tx);
  return runtime::shard::readWorkerSetup(rx);
}

/// `body` with bit `bit` of the u64 field at byte `offset` flipped.
std::vector<std::uint8_t> flipField(std::vector<std::uint8_t> body,
                                    std::size_t offset, unsigned bit) {
  std::uint64_t v = 0;
  std::memcpy(&v, body.data() + offset, sizeof v);
  v ^= std::uint64_t{1} << bit;
  std::memcpy(body.data() + offset, &v, sizeof v);
  return body;
}

TEST(WorkerSetup, RoundTripsDimensionsTopologyKernelsAndSlice) {
  const WorkerSetup setup = decodeSetup(setupBody());
  EXPECT_EQ(setup.cfg.numMachines, 8u);
  EXPECT_EQ(setup.cfg.shards, 3u);
  EXPECT_EQ(setup.cfg.shard, 1u);
  EXPECT_EQ(setup.cfg.threads, 2u);
  EXPECT_EQ(setup.cfg.topology.wordsPerMachine(), 48u);
  EXPECT_EQ(setup.kernels,
            (std::vector<std::string>{"test.alpha", "mpcspan.beta"}));
  EXPECT_EQ(setup.store->handles(), (std::vector<std::uint64_t>{3, 9}));
  for (const std::uint64_t h : {3u, 9u})
    for (std::size_t m = 0; m < 8; ++m) {
      // Only the shard's own slice [3, 6) crosses the wire.
      const std::vector<Word> want =
          m >= 3 && m < 6 ? std::vector<Word>(m % 3, h * 100 + m)
                          : std::vector<Word>{};
      EXPECT_EQ(setup.store->block(h, m).toVector(), want) << h << "/" << m;
    }
}

TEST(WorkerSetup, EveryTruncationIsShardError) {
  const std::vector<std::uint8_t> body = setupBody();
  for (std::size_t len = 0; len < body.size(); ++len)
    EXPECT_THROW(decodeSetup(std::vector<std::uint8_t>(
                     body.begin(), body.begin() + static_cast<long>(len))),
                 ShardError)
        << "truncated to " << len << " of " << body.size() << " bytes";
}

TEST(WorkerSetup, EverySingleBitFlipDecodesOrIsShardError) {
  const std::vector<std::uint8_t> body = setupBody();
  std::size_t rejected = 0;
  for (std::size_t bit = 0; bit < 8 * body.size(); ++bit) {
    std::vector<std::uint8_t> mutated = body;
    mutated[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    try {
      const WorkerSetup setup = decodeSetup(mutated);
      // What decodes is within the plausibility caps the worker sizes by.
      EXPECT_LE(setup.cfg.numMachines, runtime::shard::kMaxSetupMachines);
      EXPECT_LE(setup.cfg.threads, runtime::shard::kMaxSetupThreads);
      EXPECT_LT(setup.cfg.shard, setup.cfg.shards);
      EXPECT_LE(setup.cfg.shards, setup.cfg.numMachines);
    } catch (const ShardError&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "bit " << bit << ": not a ShardError: " << e.what();
    }
  }
  EXPECT_GT(rejected, 0u);
}

TEST(WorkerSetup, EverySpliceDecodesOrIsShardError) {
  // The head of one valid frame joined to the tail of another, at every cut
  // point and in both orders. A splice either decodes to a setup that
  // re-encodes to exactly its bytes (the decoder accepts only canonical
  // frames) or is rejected as ShardError — and nothing it decodes is sized
  // beyond the caps or the bytes the frame carried.
  const std::vector<std::uint8_t> a = setupBody();
  const std::vector<std::uint8_t> b = otherSetupBody();
  std::size_t decoded = 0;
  std::size_t rejected = 0;
  for (const auto& [head, tail] : {std::pair{&a, &b}, std::pair{&b, &a}})
    for (std::size_t cut = 0; cut <= std::max(head->size(), tail->size());
         ++cut) {
      std::vector<std::uint8_t> spliced(
          head->begin(),
          head->begin() + static_cast<long>(std::min(cut, head->size())));
      if (cut < tail->size())
        spliced.insert(spliced.end(),
                       tail->begin() + static_cast<long>(cut), tail->end());
      try {
        const WorkerSetup setup = decodeSetup(spliced);
        const runtime::shard::WorkerConfig& cfg = setup.cfg;
        EXPECT_LE(cfg.numMachines, runtime::shard::kMaxSetupMachines);
        EXPECT_LE(cfg.threads, runtime::shard::kMaxSetupThreads);
        std::size_t words = 0;
        for (const std::uint64_t h : setup.store->handles())
          for (std::size_t m = 0; m < cfg.numMachines; ++m)
            words += setup.store->block(h, m).size();
        EXPECT_LE(words * sizeof(Word), spliced.size()) << "cut " << cut;
        EXPECT_EQ(encodeSetup(cfg.numMachines, cfg.shards, cfg.shard,
                              cfg.threads, cfg.topology, setup.kernels,
                              *setup.store),
                  spliced)
            << "cut " << cut << " decoded but does not re-encode to its bytes";
        ++decoded;
      } catch (const ShardError&) {
        ++rejected;
      } catch (const std::exception& e) {
        ADD_FAILURE() << "cut " << cut << ": not a ShardError: " << e.what();
      }
    }
  EXPECT_GT(decoded, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(WorkerSetup, FlippedMachinesOrThreadsRejectedBeforeSizing) {
  // Byte 0 is the opcode; numMachines is the u64 at byte 1, threads the one
  // at byte 25. A high bit in either is refused by the dimension caps; a
  // machine count still under the cap implies a slice the frame's blocks
  // cannot hold, refused by the handle-count bound. Both checks run before
  // anything — block store, thread pool — is sized by the field.
  const std::vector<std::uint8_t> body = setupBody();
  struct Case {
    std::size_t offset;
    unsigned firstBit, endBit;
    const char* why;
  };
  const Case cases[] = {{1, 24, 64, "implausible engine dimensions"},
                        {1, 4, 24, "corrupt block handle count"},
                        {25, 10, 64, "implausible engine dimensions"}};
  for (const Case& c : cases)
    for (unsigned bit = c.firstBit; bit < c.endBit; ++bit) {
      try {
        (void)decodeSetup(flipField(body, c.offset, bit));
        ADD_FAILURE() << "field at " << c.offset << ", bit " << bit
                      << " decoded";
      } catch (const ShardError& e) {
        EXPECT_NE(std::string(e.what()).find(c.why), std::string::npos)
            << "field at " << c.offset << ", bit " << bit << ": " << e.what();
      }
    }
}

}  // namespace
}  // namespace mpcspan
