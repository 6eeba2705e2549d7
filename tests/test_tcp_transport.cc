// The tcp rendezvous and its handshakes: every failure mode of a real
// network — refused dial, accept timeout, a stray client speaking garbage,
// a worker from another protocol version, a mesh dial from a stale epoch —
// surfaces as ShardError within the deadline, never a hang; listeners that
// only same-host peers dial bind loopback only — plus the Channel contract
// every shard stream stands on: one nonblocking mode, a deadline that
// bounds a transfer even under a signal storm, and large frames in both
// directions at once — and the two decoders every worker runs on its
// coordinator's frames: SETUP, its first frame, and the STORE block slice,
// the one way blocks reach it. Each must decode or reject every truncation,
// single-bit flip and splice of two frames. Engine-level mesh behavior
// lives in test_peer_exchange.
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

#include "alloc_cap.hpp"
#include "runtime/kernel.hpp"
#include "runtime/shard/protocol.hpp"
#include "runtime/shard/transport.hpp"
#include "runtime/shard/wire.hpp"
#include "runtime/shard/worker_loop.hpp"
#include "runtime/thread_pool.hpp"
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
using runtime::shard::WorkerConfig;

using Bytes = std::vector<std::uint8_t>;

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
Bytes encodeSetup(std::size_t numMachines, std::size_t shards,
                  std::size_t shard, std::size_t threads,
                  const runtime::MpcTopology& topo) {
  WireFd txEnd;
  WireFd rxEnd;
  runtime::shard::makeSocketPair(txEnd, rxEnd);
  Channel tx(std::move(txEnd));
  Channel rx(std::move(rxEnd));
  runtime::shard::sendWorkerSetup(tx, numMachines, shards, shard, threads,
                                  topo);
  WireReader r = WireReader::recvFramed(rx);
  const std::size_t n = r.remaining();
  const std::uint8_t* bytes = r.raw(n);
  return Bytes(bytes, bytes + n);
}

/// A SETUP body: shard 1 of 3 over 8 machines, 2 lanes, an MPC topology.
Bytes setupBody() { return encodeSetup(8, 3, 1, 2, runtime::MpcTopology(48)); }

/// A SETUP body with other dimensions throughout: the last shard of 4 over
/// 12 machines, 1 lane, another word budget S. Its shard id spliced onto
/// setupBody's 3 shards names a shard that does not exist.
Bytes otherSetupBody() {
  return encodeSetup(12, 4, 3, 1, runtime::MpcTopology(20000));
}

/// Frames `body` (with its true length) and decodes it the way a tcp
/// worker does.
WorkerConfig decodeSetup(const Bytes& body) {
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
Bytes flipField(Bytes body, std::size_t offset, unsigned bit) {
  std::uint64_t v = 0;
  std::memcpy(&v, body.data() + offset, sizeof v);
  v ^= std::uint64_t{1} << bit;
  std::memcpy(body.data() + offset, &v, sizeof v);
  return body;
}

TEST(WorkerSetup, RoundTripsDimensionsAndTopology) {
  const WorkerConfig cfg = decodeSetup(setupBody());
  EXPECT_EQ(cfg.numMachines, 8u);
  EXPECT_EQ(cfg.shards, 3u);
  EXPECT_EQ(cfg.shard, 1u);
  EXPECT_EQ(cfg.threads, 2u);
  EXPECT_EQ(cfg.topology.wordsPerMachine(), 48u);
}

TEST(WorkerSetup, EveryTruncationIsShardError) {
  const Bytes body = setupBody();
  for (std::size_t len = 0; len < body.size(); ++len)
    EXPECT_THROW(decodeSetup(Bytes(body.begin(),
                                   body.begin() + static_cast<long>(len))),
                 ShardError)
        << "truncated to " << len << " of " << body.size() << " bytes";
}

TEST(WorkerSetup, EverySingleBitFlipDecodesOrIsShardError) {
  const Bytes body = setupBody();
  std::size_t rejected = 0;
  for (std::size_t bit = 0; bit < 8 * body.size(); ++bit) {
    Bytes mutated = body;
    mutated[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    try {
      const WorkerConfig cfg = decodeSetup(mutated);
      // What decodes is within the plausibility caps the worker sizes by.
      EXPECT_LE(cfg.numMachines, runtime::shard::kMaxSetupMachines);
      EXPECT_LE(cfg.threads, runtime::kMaxThreads);
      EXPECT_LT(cfg.shard, cfg.shards);
      EXPECT_LE(cfg.shards, cfg.numMachines);
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
  // frames) or is rejected as ShardError.
  const Bytes a = setupBody();
  const Bytes b = otherSetupBody();
  std::size_t decoded = 0;
  std::size_t rejected = 0;
  for (const auto& [head, tail] : {std::pair{&a, &b}, std::pair{&b, &a}})
    for (std::size_t cut = 0; cut <= std::max(head->size(), tail->size());
         ++cut) {
      Bytes spliced(
          head->begin(),
          head->begin() + static_cast<long>(std::min(cut, head->size())));
      if (cut < tail->size())
        spliced.insert(spliced.end(),
                       tail->begin() + static_cast<long>(cut), tail->end());
      try {
        const WorkerConfig cfg = decodeSetup(spliced);
        EXPECT_LE(cfg.numMachines, runtime::shard::kMaxSetupMachines);
        EXPECT_LE(cfg.threads, runtime::kMaxThreads);
        EXPECT_EQ(encodeSetup(cfg.numMachines, cfg.shards, cfg.shard,
                              cfg.threads, cfg.topology),
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
  // at byte 25. A high bit in either is refused by the dimension caps
  // before anything — thread pool, machine slice — is sized by the field.
  const Bytes body = setupBody();
  struct Case {
    std::size_t offset;
    unsigned firstBit;
  };
  for (const Case c : {Case{1, 24}, Case{25, 10}})
    for (unsigned bit = c.firstBit; bit < 64; ++bit) {
      try {
        (void)decodeSetup(flipField(body, c.offset, bit));
        ADD_FAILURE() << "field at " << c.offset << ", bit " << bit
                      << " decoded";
      } catch (const ShardError& e) {
        EXPECT_NE(std::string(e.what()).find("implausible engine dimensions"),
                  std::string::npos)
            << "field at " << c.offset << ", bit " << bit << ": " << e.what();
      }
    }
}

// --- The STORE block-slice decoder: the one way blocks reach a worker. ---

/// The slice the block-slice bodies below carry: machines [3, 6) of 8.
constexpr std::size_t kSliceMachines = 8;
constexpr std::size_t kSliceLo = 3;
constexpr std::size_t kSliceHi = 6;

/// machine m's block under `handle`: (m + shift) % 3 words.
std::vector<Word> sliceBlock(std::uint64_t handle, std::size_t m,
                             std::size_t shift) {
  return std::vector<Word>((m + shift) % 3, handle * 100 + m);
}

/// The writeBlockSlice body of `handle`'s blocks (sliceBlock) over
/// [kSliceLo, kSliceHi).
Bytes blockSliceBody(std::uint64_t handle, std::size_t shift) {
  std::vector<std::vector<Word>> perMachine(kSliceMachines);
  for (std::size_t m = 0; m < kSliceMachines; ++m)
    perMachine[m] = sliceBlock(handle, m, shift);
  WireWriter w;
  runtime::shard::writeBlockSlice(w, handle, perMachine, kSliceLo, kSliceHi);
  return Bytes(w.data(), w.data() + w.size());
}

/// Decodes `bytes` the way a worker's STORE case does, into a fresh store,
/// with a capped allocator (a few times the body, plus 128 KiB of slack).
/// Returns true if it decoded; fails the test unless the body either
/// re-encodes to exactly its bytes or is rejected with ShardError.
bool decodeBlockSlice(const Bytes& bytes, const std::string& label) {
  runtime::BlockStore store(kSliceMachines);
  WireReader r = WireReader::fromBytes(bytes);
  std::uint64_t handle = 0;
  try {
    const test_alloc::AllocCap cap(4 * bytes.size() + (std::size_t{1} << 17));
    handle = runtime::shard::readBlockSlice(r, kSliceLo, kSliceHi, store);
  } catch (const ShardError&) {
    return false;
  } catch (const std::bad_alloc&) {
    ADD_FAILURE() << label << ": allocation past the body's size";
    return false;
  } catch (const std::exception& e) {
    ADD_FAILURE() << label << ": not a ShardError: " << e.what();
    return false;
  }
  std::vector<std::vector<Word>> perMachine(kSliceMachines);
  for (std::size_t m = kSliceLo; m < kSliceHi; ++m)
    perMachine[m] = store.block(handle, m);
  WireWriter w;
  runtime::shard::writeBlockSlice(w, handle, perMachine, kSliceLo, kSliceHi);
  EXPECT_EQ(Bytes(w.data(), w.data() + w.size()), bytes)
      << label << ": decoded but does not re-encode to its bytes";
  return true;
}

TEST(BlockSlice, RoundTripsTheShardsBlocksOnly) {
  const Bytes body = blockSliceBody(3, 0);
  runtime::BlockStore store(kSliceMachines);
  WireReader r = WireReader::fromBytes(body);
  EXPECT_EQ(runtime::shard::readBlockSlice(r, kSliceLo, kSliceHi, store), 3u);
  for (std::size_t m = 0; m < kSliceMachines; ++m) {
    // Only the slice [3, 6) crosses the wire.
    const std::vector<Word> want = m >= kSliceLo && m < kSliceHi
                                       ? sliceBlock(3, m, 0)
                                       : std::vector<Word>{};
    EXPECT_EQ(store.block(3, m), want) << m;
  }
  EXPECT_TRUE(decodeBlockSlice(body, "valid"));
}

TEST(BlockSlice, TrailingBytesAreShardError) {
  Bytes body = blockSliceBody(3, 0);
  body.push_back(0);
  EXPECT_FALSE(decodeBlockSlice(body, "one trailing byte"));
  const Bytes word(sizeof(Word), 0);
  body = blockSliceBody(3, 0);
  body.insert(body.end(), word.begin(), word.end());
  EXPECT_FALSE(decodeBlockSlice(body, "one trailing word"));
}

TEST(BlockSlice, EveryTruncationIsShardError) {
  const Bytes body = blockSliceBody(3, 0);
  for (std::size_t len = 0; len < body.size(); ++len)
    EXPECT_FALSE(decodeBlockSlice(
        Bytes(body.begin(), body.begin() + static_cast<long>(len)),
        "truncated to " + std::to_string(len)))
        << "truncated to " << len << " of " << body.size() << " bytes";
}

TEST(BlockSlice, EverySingleBitFlipDecodesOrIsShardError) {
  const Bytes body = blockSliceBody(3, 0);
  std::size_t decoded = 0;
  std::size_t rejected = 0;
  for (std::size_t bit = 0; bit < 8 * body.size(); ++bit) {
    Bytes mutated = body;
    mutated[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    ++(decodeBlockSlice(mutated, "bit " + std::to_string(bit)) ? decoded
                                                                : rejected);
  }
  EXPECT_GT(decoded, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(BlockSlice, EverySpliceDecodesOrIsShardError) {
  // Two bodies whose rows have other lengths, joined at every cut point in
  // both orders.
  const Bytes a = blockSliceBody(3, 0);
  const Bytes b = blockSliceBody(9, 1);
  std::size_t decoded = 0;
  std::size_t rejected = 0;
  for (const auto& [head, tail] : {std::pair{&a, &b}, std::pair{&b, &a}})
    for (std::size_t cut = 0; cut <= std::max(head->size(), tail->size());
         ++cut) {
      Bytes spliced(
          head->begin(),
          head->begin() + static_cast<long>(std::min(cut, head->size())));
      if (cut < tail->size())
        spliced.insert(spliced.end(),
                       tail->begin() + static_cast<long>(cut), tail->end());
      ++(decodeBlockSlice(spliced, "cut " + std::to_string(cut)) ? decoded
                                                                  : rejected);
    }
  EXPECT_GT(decoded, 0u);
  EXPECT_GT(rejected, 0u);
}

// --- The FETCH_INBOXES reply decoder: how the coordinator reads a worker's
// resident inboxes. ---

/// Three inboxes of an 8-machine engine: an empty one, one holding a
/// zero-word row, and rows of several lengths from several sources.
std::vector<runtime::WordRows> sampleInboxes(Word shift) {
  std::vector<runtime::WordRows> inboxes(3);
  inboxes[1].add(2, {});
  inboxes[2].add(0, {shift});
  inboxes[2].add(0, {shift + 1, shift + 2, shift + 3});
  inboxes[2].add(7, {~Word{0} - shift, 5});
  return inboxes;
}

Bytes inboxBody(Word shift) {
  WireWriter w;
  runtime::shard::writeInboxes(w, sampleInboxes(shift));
  return Bytes(w.data(), w.data() + w.size());
}

/// Decodes `bytes` the way the coordinator reads a worker's reply, with a
/// capped allocator (a few times the body). Returns true if it decoded;
/// fails the test unless the body either re-encodes to exactly its bytes or
/// is rejected with ShardError.
bool decodeInboxes(const Bytes& bytes, const std::string& label) {
  WireReader r = WireReader::fromBytes(bytes);
  std::vector<runtime::WordRows> inboxes;
  try {
    const test_alloc::AllocCap cap(4 * bytes.size() + 256);
    inboxes = runtime::shard::readInboxes(r, 3, kSliceMachines);
  } catch (const ShardError&) {
    return false;
  } catch (const std::bad_alloc&) {
    ADD_FAILURE() << label << ": allocation past the body's size";
    return false;
  } catch (const std::exception& e) {
    ADD_FAILURE() << label << ": not a ShardError: " << e.what();
    return false;
  }
  WireWriter w;
  runtime::shard::writeInboxes(w, inboxes);
  EXPECT_EQ(Bytes(w.data(), w.data() + w.size()), bytes)
      << label << ": decoded but does not re-encode to its bytes";
  return true;
}

TEST(InboxReply, RoundTripsEveryRow) {
  const Bytes body = inboxBody(40);
  WireReader r = WireReader::fromBytes(body);
  EXPECT_EQ(runtime::shard::readInboxes(r, 3, kSliceMachines),
            sampleInboxes(40));
  EXPECT_TRUE(decodeInboxes(body, "valid"));
}

TEST(InboxReply, TrailingBytesAreShardError) {
  Bytes body = inboxBody(40);
  body.push_back(0);
  EXPECT_FALSE(decodeInboxes(body, "one trailing byte"));
  // A fourth, empty inbox: a whole trailing row count.
  const Bytes word(sizeof(Word), 0);
  body = inboxBody(40);
  body.insert(body.end(), word.begin(), word.end());
  EXPECT_FALSE(decodeInboxes(body, "one trailing word"));
}

TEST(InboxReply, SourceOutsideTheEngineIsShardError) {
  std::vector<runtime::WordRows> inboxes = sampleInboxes(40);
  inboxes[0].add(kSliceMachines, {1});
  WireWriter w;
  runtime::shard::writeInboxes(w, inboxes);
  EXPECT_FALSE(decodeInboxes(Bytes(w.data(), w.data() + w.size()),
                             "source 8 of 8 machines"));
}

TEST(InboxReply, EveryTruncationIsShardError) {
  const Bytes body = inboxBody(40);
  for (std::size_t len = 0; len < body.size(); ++len)
    EXPECT_FALSE(decodeInboxes(
        Bytes(body.begin(), body.begin() + static_cast<long>(len)),
        "truncated to " + std::to_string(len)))
        << "truncated to " << len << " of " << body.size() << " bytes";
}

TEST(InboxReply, EverySingleBitFlipDecodesOrIsShardError) {
  const Bytes body = inboxBody(40);
  std::size_t decoded = 0;
  std::size_t rejected = 0;
  for (std::size_t bit = 0; bit < 8 * body.size(); ++bit) {
    Bytes mutated = body;
    mutated[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    ++(decodeInboxes(mutated, "bit " + std::to_string(bit)) ? decoded
                                                            : rejected);
  }
  EXPECT_GT(decoded, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(InboxReply, EverySpliceDecodesOrIsShardError) {
  // Two bodies of one shape but other words, and a body of another shape,
  // joined at every cut point in both orders.
  const Bytes a = inboxBody(40);
  const Bytes b = inboxBody(9);
  WireWriter w;
  runtime::shard::writeInboxes(w, std::vector<runtime::WordRows>(3));
  const Bytes c(w.data(), w.data() + w.size());
  std::size_t decoded = 0;
  std::size_t rejected = 0;
  for (const auto& [head, tail] :
       {std::pair{&a, &b}, std::pair{&b, &a}, std::pair{&a, &c},
        std::pair{&c, &a}})
    for (std::size_t cut = 0; cut <= std::max(head->size(), tail->size());
         ++cut) {
      Bytes spliced(
          head->begin(),
          head->begin() + static_cast<long>(std::min(cut, head->size())));
      if (cut < tail->size())
        spliced.insert(spliced.end(),
                       tail->begin() + static_cast<long>(cut), tail->end());
      ++(decodeInboxes(spliced, "cut " + std::to_string(cut)) ? decoded
                                                              : rejected);
    }
  EXPECT_GT(decoded, 0u);
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace mpcspan
