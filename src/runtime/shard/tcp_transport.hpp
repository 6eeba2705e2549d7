// TCP rendezvous for the sharded engine: how every shard worker is started
// and wired into the mesh, so shards can live on other machines.
//
// Shape of a rendezvous (coordinator = the engine process, one worker per
// shard; workers are either fork()ed locally or attached remotely by
// `mpcspan_worker --connect host:port --shard k`, and both run the one
// worker half of steps 2-4, attachTcpWorker):
//
//   1. The coordinator listens on MPCSPAN_TCP_PORT (0 / unset = ephemeral):
//      on 127.0.0.1 when it forks its own workers, on every interface when
//      MPCSPAN_TCP_REMOTE=1 awaits remote attaches.
//   2. Each worker opens its own ephemeral *mesh* listener (on 127.0.0.1
//      when it dialed the coordinator over loopback, on every interface
//      otherwise), dials the coordinator, and sends a control hello:
//        u64 magic "MPCSPAN1" | u8 version | u64 shard | u64 epoch |
//        u64 mesh-listener port
//      epoch 0 means "attach me" (remote workers cannot know the epoch);
//      forked workers echo the epoch they inherited, and anything else is a
//      stale/foreign dial the coordinator rejects with ShardError.
//   3. Once every shard has checked in, the coordinator answers each with a
//      roster: u64 magic | u8 version | u64 epoch | u64 shards |
//      shards x (str host + u64 mesh port), then a SETUP frame (see
//      worker_loop.hpp) carrying the engine's dimensions and the topology's
//      word budget. Kernels and blocks follow later, as control frames.
//   4. Workers dial each other to form the full mesh — shard s dials every
//      t < s and accepts from every t > s (deadlock-free: connects complete
//      against the listen backlog) — each connection opening with a mesh
//      hello (magic | version | shard | epoch) + one ack byte.
//
// Every wait in the rendezvous and in the per-round traffic runs under a
// deadline (MPCSPAN_TCP_TIMEOUT_MS); a refused dial, a half-open peer, or a
// hello from the wrong epoch surfaces as ShardError, never a hang. The
// socket work itself (dial, listen, accept, paced I/O) is util/socket's;
// this file adds the shard failure model (ShardError), SO_KEEPALIVE, and
// the handshakes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "runtime/shard/transport.hpp"

namespace mpcspan::runtime::shard {

/// First field of every tcp hello ("MPCSPAN1" as a host-endian u64): a
/// stray client dialing the port fails the handshake immediately instead of
/// being interpreted as a shard.
constexpr std::uint64_t kTcpMagic = 0x314e415053504d4dull;
/// Bumped whenever a control or mesh frame changes shape; remote workers
/// from an older build are rejected at the handshake.
constexpr std::uint8_t kTcpVersion = 6;

/// MPCSPAN_TCP_TIMEOUT_MS (default 30000): the per-transfer deadline of
/// every tcp channel (and the budget of each mesh exchange).
int defaultTcpTimeoutMs();
/// MPCSPAN_TCP_PORT (default 0 = kernel-assigned): the coordinator's
/// rendezvous port. Remote workers must be pointed at a fixed value.
std::uint16_t defaultTcpPort();
/// MPCSPAN_TCP_REMOTE=1: the coordinator forks nothing and instead waits
/// for every shard to attach via mpcspan_worker.
bool defaultTcpRemote();

/// Nonzero, unique-per-engine rendezvous epoch (pid + counter mix). Zero is
/// reserved as the remote worker's "attach me" hello value.
std::uint64_t makeTcpEpoch();

/// True for a numeric 127.0.0.0/8 address or "localhost": a peer reached
/// at such a host runs on this machine.
bool isLoopbackHost(const std::string& host);

/// Listening IPv4 stream socket (util::listenTcp); owns and closes the fd.
class TcpListener {
 public:
  TcpListener() = default;
  /// Binds and listens on 127.0.0.1 when `loopbackOnly` (every dialer runs
  /// on this host), else on 0.0.0.0; port 0 asks the kernel for an
  /// ephemeral port (read back via port()). Throws ShardError on failure.
  TcpListener(std::uint16_t port, bool loopbackOnly);

  bool valid() const { return fd_.valid(); }
  int fd() const { return fd_.fd(); }
  std::uint16_t port() const { return port_; }
  /// Closes the listener (also used by forked workers to drop the
  /// coordinator listener they inherited).
  void reset() { fd_.reset(); }

  /// Accepts one connection within deadlineMs (ShardError on expiry);
  /// the returned fd is nonblocking with TCP_NODELAY + SO_KEEPALIVE set.
  WireFd accept(int deadlineMs);

 private:
  WireFd fd_;
  std::uint16_t port_ = 0;
};

/// Dials host:port within deadlineMs (util::dialTcp). A refused,
/// unreachable, or timed-out connect throws ShardError; the returned fd is
/// nonblocking with TCP_NODELAY + SO_KEEPALIVE set.
WireFd tcpConnect(const std::string& host, std::uint16_t port, int deadlineMs);

/// The worker->coordinator control hello (step 2 above).
struct TcpHello {
  std::uint64_t shard = 0;
  std::uint64_t epoch = 0;  // 0 = remote attach request
  std::uint16_t meshPort = 0;
};

/// One roster row: where shard k's mesh listener can be dialed.
struct TcpPeerAddr {
  std::string host;
  std::uint16_t port = 0;
};

void sendControlHello(Channel& ch, const TcpHello& hello);
/// Vets magic + version (ShardError on mismatch); epoch/shard semantics are
/// the caller's to enforce.
TcpHello readControlHello(Channel& ch);

void sendRoster(Channel& ch, std::uint64_t epoch,
                const std::vector<TcpPeerAddr>& roster);
/// Vets magic + version and, when expectedEpoch != 0, the epoch too.
std::vector<TcpPeerAddr> readRoster(Channel& ch, std::uint64_t expectedEpoch,
                                    std::uint64_t* epochOut);

/// Forms shard `self`'s mesh row (step 4): dials roster[t] for t < self,
/// accepts the rest on meshListener, handshakes every connection against
/// `epoch`, and returns the (nonblocking) fds — ready for meshExchange().
/// peers[self] is left invalid.
std::vector<WireFd> formTcpMesh(std::size_t self, std::uint64_t epoch,
                                TcpListener& meshListener,
                                const std::vector<TcpPeerAddr>& roster,
                                int deadlineMs);

/// The worker half of a rendezvous, shared by every worker — the engine's
/// forked loopback children and `mpcspan_worker --connect`: opens a mesh
/// listener (loopback-only when `host` is), dials host:port, sends the
/// control hello (the forked child's inherited epoch, or 0 for a remote
/// attach), reads the roster and the SETUP frame, forms the mesh, and runs
/// the resident command loop until SHUTDOWN or coordinator EOF. Throws
/// ShardError on any rendezvous failure.
void attachTcpWorker(const std::string& host, std::uint16_t port,
                     std::size_t shard, std::uint64_t epoch, int timeoutMs);

/// Numeric address of the connected peer ("127.0.0.1" style) — what the
/// coordinator advertises in the roster as a worker's mesh host.
std::string peerHostOf(int fd);

}  // namespace mpcspan::runtime::shard
