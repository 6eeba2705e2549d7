// The tcp rendezvous and its handshakes: every failure mode of a real
// network — refused dial, accept timeout, a stray client speaking garbage,
// a worker from another protocol version, a mesh dial from a stale epoch —
// surfaces as ShardError within the deadline, never a hang. Engine-level
// tcp behavior lives in the transport suite (test_peer_exchange).
#include "runtime/shard/tcp_transport.hpp"

#include <gtest/gtest.h>

#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "runtime/shard/transport.hpp"
#include "runtime/shard/wire.hpp"

namespace mpcspan {
namespace {

using runtime::shard::Channel;
using runtime::shard::formTcpMesh;
using runtime::shard::kTcpMagic;
using runtime::shard::kTcpVersion;
using runtime::shard::readControlHello;
using runtime::shard::ShardError;
using runtime::shard::tcpConnect;
using runtime::shard::TcpListener;
using runtime::shard::TcpPeerAddr;
using runtime::shard::WireFd;
using runtime::shard::WireWriter;

// --- Failure modes. Every one must be a ShardError within the deadline. ---

TEST(TcpTransport, RefusedDialThrowsShardError) {
  // Grab an ephemeral port the kernel just proved free, close the
  // listener, and dial it: connection refused, immediately.
  std::uint16_t deadPort = 0;
  {
    TcpListener l(0);
    deadPort = l.port();
  }
  EXPECT_THROW(tcpConnect("127.0.0.1", deadPort, 2000), ShardError);
}

TEST(TcpTransport, AcceptDeadlineExpiresAsShardError) {
  TcpListener l(0);
  EXPECT_THROW(l.accept(/*deadlineMs=*/50), ShardError);
}

TEST(TcpTransport, StrayClientGarbageRejectedAtControlHello) {
  TcpListener l(0);
  std::thread stray([&] {
    try {
      WireFd fd = tcpConnect("127.0.0.1", l.port(), 2000);
      const char junk[32] = "GET / HTTP/1.1\r\n\r\n";
      fd.writeAll(junk, sizeof junk);
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
  TcpListener l(0);
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
  TcpListener mesh0(0);
  TcpListener mesh1(0);
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

}  // namespace
}  // namespace mpcspan
