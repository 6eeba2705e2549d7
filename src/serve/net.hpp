// Serve-specific socket pieces of the serving daemon: SIGPIPE suppression
// and the `u64 length + body` frame read/write with the daemon's idle,
// per-frame and per-write budgets.
//
// Every frame is one segment on the wire and, normally, one recv on the
// receiving side: writeFrame gathers the length and the body into one
// sendmsg, and readFrame reads through a per-connection RecvBuffer, so one
// recv takes the header and a small body together and the body is handed
// out in place (no copy).
//
// The socket I/O underneath — the owning fd, the poll wait, the recv loop,
// the gathered write, dial/listen/accept — lives in util/socket.hpp, shared
// with the shard transports. Everything stays poll-paced and status-coded:
// a serving daemon's I/O paths hit EOF, timeouts, and garbage as a matter
// of course, and each caller decides which of those is a counter bump, an
// error reply, or a plain connection close. (The shard layer wraps the same
// statuses in ShardError instead: there a broken peer aborts the round;
// here it must never take the daemon down.)
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/deadline.hpp"
#include "util/socket.hpp"

namespace mpcspan::serve {

using util::ioStatusName;
using util::IoPacing;
using util::IoStatus;
using util::WireFd;

/// Installs SIG_IGN for SIGPIPE, process-wide and idempotent. A serving
/// daemon writes to sockets whose peers vanish at will; every such write
/// must surface as EPIPE on the one affected session, never a signal that
/// kills the process. (util/socket already passes MSG_NOSIGNAL per call;
/// this covers every other write the daemon will ever make.)
void ignoreSigpipe();

/// The receive side of one connection: bytes read off the socket and not
/// yet handed out as a frame. Each recv takes as much as there is room for,
/// so bytes past the current frame — a pipelined request, the start of the
/// next frame — stay here for the next readFrame. One per connection (a
/// server session, a ServeClient); clear() it whenever the connection is
/// dropped, so nothing read on the old one is parsed as the new one's.
class RecvBuffer {
 public:
  /// Allocated at the first readFrame; grown only to fit a vetted length.
  static constexpr std::size_t kInitialBytes = 4096;

  /// Drops every pending byte (the allocation stays for reuse).
  void clear() { begin_ = end_ = 0; }
  /// Bytes received past the last frame handed out.
  std::size_t pending() const { return end_ - begin_; }
  std::size_t capacity() const { return bytes_.size(); }

 private:
  friend IoStatus readFrame(int fd, RecvBuffer& in,
                            std::span<const std::uint8_t>& body,
                            std::uint64_t maxBytes,
                            const util::DeadlineBudget& idleBudget,
                            int frameTimeoutMs, const IoPacing& pacing);
  /// Reads until `need` bytes are pending, making room first.
  IoStatus fill(int fd, std::size_t need, const util::DeadlineBudget& budget,
                const IoPacing& pacing);

  std::vector<std::uint8_t> bytes_;
  std::size_t begin_ = 0;  // first pending byte
  std::size_t end_ = 0;    // one past the last received byte
};

/// Receives one `u64 length + body` frame through `in`; on kOk `body` views
/// it inside `in`, valid until the next readFrame or clear() on `in`. A
/// frame already pending in `in` is returned without touching the socket.
/// The *idle* wait (no first header byte yet) runs under idleBudget —
/// unbounded for a server session at top-of-loop, the request timeout for a
/// client. Once the first byte has arrived the rest of the frame must land
/// within frameTimeoutMs (a fresh budget): a peer that starts a frame and
/// stalls is a slow-client fault, not an idle one. A length of 0 or >
/// maxBytes returns kMalformed before `in` grows for the body.
IoStatus readFrame(int fd, RecvBuffer& in, std::span<const std::uint8_t>& body,
                   std::uint64_t maxBytes, const util::DeadlineBudget& idleBudget,
                   int frameTimeoutMs, const IoPacing& pacing);

/// Sends one `u64 length + body` frame, gathered into one sendmsg, within
/// writeTimeoutMs. A peer that will not drain its socket within the timeout
/// gets kTimeout — the slow reader is dropped, the daemon's thread is not
/// held hostage.
IoStatus writeFrame(int fd, const std::uint8_t* body, std::size_t n,
                    int writeTimeoutMs, const IoPacing& pacing);

}  // namespace mpcspan::serve
