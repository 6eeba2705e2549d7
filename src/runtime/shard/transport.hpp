// The stream type of the shard layer: a Channel is one end of a
// coordinator<->worker or worker<->worker stream — a tcp_transport.hpp
// rendezvous socket (or, in tests, a makeSocketPair end).
//
// Every Channel has one mode: its fd is nonblocking, and every transfer is
// paced by util::awaitFd within one DeadlineBudget(deadlineMs) per call; a
// deadline < 0 means no expiry. The deadline bounds one transfer (one
// readAll / writeAll / writeAll2 call, so one frame header or one frame
// body), not one wait: a silent peer expires at the same instant a per-wait
// timeout would give, and a peer that trickles bytes cannot hold a control
// read open past it either. An EINTR re-polls only for the time still
// remaining, so a steady signal source cannot stretch a transfer.
//
// The rendezvous gives every channel MPCSPAN_TCP_TIMEOUT_MS: a real network
// can stall without ever delivering EOF (half-open peers, black-holed
// routes).
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

#include "runtime/shard/wire.hpp"
#include "util/deadline.hpp"

namespace mpcspan::runtime::shard {

/// One shared wall-clock budget for every communication wait of a round.
/// A round barrier is composed of many transfers; the budget fixes the
/// expiry instant once, so a peer trickling bytes spends it instead of
/// refreshing it. The class lives in util/deadline.hpp (the serving daemon
/// paces per-request deadlines with the same type); this alias keeps the
/// shard layer's spelling.
using DeadlineBudget = ::mpcspan::util::DeadlineBudget;

class Channel {
 public:
  Channel() = default;
  /// Takes the fd and switches it to nonblocking mode (ShardError if that
  /// fails, which only a bogus fd can cause).
  explicit Channel(WireFd fd, int deadlineMs = -1);

  bool valid() const { return fd_.valid(); }
  int fd() const { return fd_.fd(); }
  void reset() { fd_.reset(); }

  /// Deadline (ms) for each transfer; < 0 means no expiry. Mutable because
  /// one channel alternates between round I/O (bounded) and the worker's
  /// idle top-of-loop command read (unbounded — an idle engine may
  /// legitimately not speak for minutes; SO_KEEPALIVE covers a peer that
  /// died silently in the meantime).
  void setDeadline(int deadlineMs) { deadlineMs_ = deadlineMs; }
  int deadline() const { return deadlineMs_; }

  /// Full-buffer transfers. Throw ShardError on EOF, a socket error, or an
  /// expired deadline ("tcp channel timed out after N ms ...").
  void readAll(void* buf, std::size_t n);
  void writeAll(const void* buf, std::size_t n);
  /// Gathered header + body write (one sendmsg when the buffer has room).
  void writeAll2(const void* hdr, std::size_t nHdr, const void* body,
                 std::size_t nBody);

  /// Surrenders the owned fd, still nonblocking — used by the rendezvous,
  /// which handshakes through a Channel and then hands the raw fd to the
  /// peer mesh, whose pumps need exactly that mode.
  WireFd release() { return std::move(fd_); }

 private:
  WireFd fd_;
  int deadlineMs_ = -1;
};

}  // namespace mpcspan::runtime::shard
