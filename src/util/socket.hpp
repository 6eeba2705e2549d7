// Socket plumbing shared by the shard transports (runtime/shard) and the
// serving daemon (serve/): one owning fd type, one poll wait, one recv loop
// (full-buffer or at-least-n), one full-buffer write, one gathered write,
// and one dial / listen / accept path.
//
// Every transfer is nonblocking and poll-paced within a DeadlineBudget: no
// call waits past its budget, and an EINTR re-polls only for the time still
// remaining, so a steady signal source (a profiler, SIGHUP reloads) cannot
// stretch a wait. With a stop flag in the pacing, every wait is also sliced
// (pollSliceMs) so a shutting-down server never waits on a silent peer.
//
// Errors are *status codes*, not exceptions. Each caller wraps them in its
// own failure model: the shard layer turns any non-OK status into
// ShardError (a broken peer aborts the round), while the serving daemon
// decides per status whether it is a counter bump, an error reply, or a
// plain connection close (a broken peer must never take the daemon down).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

#include "util/deadline.hpp"

namespace mpcspan::util {

/// One owned socket end; closes the fd on destruction.
class WireFd {
 public:
  WireFd() = default;
  explicit WireFd(int fd) : fd_(fd) {}
  ~WireFd() { reset(); }

  WireFd(const WireFd&) = delete;
  WireFd& operator=(const WireFd&) = delete;
  WireFd(WireFd&& o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
  WireFd& operator=(WireFd&& o) noexcept {
    if (this != &o) {
      reset();
      fd_ = o.fd_;
      o.fd_ = -1;
    }
    return *this;
  }

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  void reset(int fd = -1);

 private:
  int fd_ = -1;
};

enum class IoStatus {
  kOk,         // full transfer done
  kEof,        // peer closed (possibly mid-frame), or EPIPE/ECONNRESET
  kStopped,    // the stop flag was raised mid-wait
  kTimeout,    // the deadline budget ran out
  kMalformed,  // frame failed vetting (length 0 or > cap)
  kError,      // socket error; errno holds the failing call's error
};
const char* ioStatusName(IoStatus s);

/// How waits are paced: an optional stop flag checked every pollSliceMs.
/// Without a stop flag a wait is one poll for the budget's remaining time.
struct IoPacing {
  const std::atomic<bool>* stop = nullptr;
  int pollSliceMs = 200;
};

/// Sets O_NONBLOCK. False (errno set) only on a bogus fd.
bool setNonblocking(int fd);

/// Waits for `events` (POLLIN/POLLOUT) on fd within the budget. POLLHUP /
/// POLLERR report as kOk — the subsequent read/write surfaces the real
/// condition (EOF or errno), which is the accurate one.
IoStatus awaitFd(int fd, short events, const DeadlineBudget& budget,
                 const IoPacing& pacing);

/// Full-buffer read/write on a nonblocking socket fd, poll-paced within the
/// budget. Partial progress then EOF/timeout reports as such — the caller
/// treats any non-kOk as "this connection is done". Writes never raise
/// SIGPIPE (MSG_NOSIGNAL).
IoStatus readBytes(int fd, void* buf, std::size_t n,
                   const DeadlineBudget& budget, const IoPacing& pacing);
/// Buffered form of readBytes: reads until at least `min` bytes have
/// arrived, letting each recv take up to `max` (min <= max) — whatever the
/// kernel already holds past `min` comes along in the same syscall. `got`
/// receives the byte count, partial progress included.
IoStatus readAtLeast(int fd, void* buf, std::size_t min, std::size_t max,
                     std::size_t& got, const DeadlineBudget& budget,
                     const IoPacing& pacing);
IoStatus writeBytes(int fd, const void* buf, std::size_t n,
                    const DeadlineBudget& budget, const IoPacing& pacing);

/// Gathered full write of two buffers: one sendmsg covers header + body, so
/// a frame that fits the socket buffer costs one syscall, not two.
IoStatus writeBytes2(int fd, const void* hdr, std::size_t nHdr,
                     const void* body, std::size_t nBody,
                     const DeadlineBudget& budget, const IoPacing& pacing);

/// Connects to host:port (IPv4) within connectTimeoutMs. The returned fd is
/// nonblocking + CLOEXEC with TCP_NODELAY set. On resolve/connect failure
/// or timeout returns an invalid WireFd and sets `err` to
/// "host:port: <reason>".
WireFd dialTcp(const std::string& host, std::uint16_t port,
               int connectTimeoutMs, std::string& err);

/// Binds + listens on host:port (port 0 = ephemeral; *boundPort receives
/// the actual one; backlog <= 0 = SOMAXCONN). Nonblocking + CLOEXEC, with
/// SO_REUSEADDR. On failure returns an invalid WireFd and sets `err` to
/// "<step> host:port: <reason>".
WireFd listenTcp(const std::string& host, std::uint16_t port, int backlog,
                 std::uint16_t* boundPort, std::string& err);

/// Accepts one pending connection off a nonblocking listener: a valid
/// nonblocking + CLOEXEC fd with TCP_NODELAY set, or an invalid WireFd when
/// none is pending or the accept failed; errno then holds accept4's error
/// (EAGAIN/EWOULDBLOCK: nothing pending).
WireFd acceptOn(int listenFd);

}  // namespace mpcspan::util
