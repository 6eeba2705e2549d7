// Serve-specific socket pieces of the serving daemon: SIGPIPE suppression
// and the `u64 length + body` frame read/write with the daemon's idle,
// per-frame and per-write budgets.
//
// The socket I/O underneath — the owning fd, the poll wait, the full-buffer
// read/write, dial/listen/accept — lives in util/socket.hpp, shared with the
// shard transports. Everything stays poll-paced and status-coded: a serving
// daemon's I/O paths hit EOF, timeouts, and garbage as a matter of course,
// and each caller decides which of those is a counter bump, an error reply,
// or a plain connection close. (The shard layer wraps the same statuses in
// ShardError instead: there a broken peer aborts the round; here it must
// never take the daemon down.)
#pragma once

#include <cstddef>
#include <cstdint>
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

/// Receives one `u64 length + body` frame into `body`. The *idle* wait (no
/// first header byte yet) runs under idleBudget — unbounded for a server
/// session at top-of-loop, the request timeout for a client. Once the first
/// byte arrives the rest of the frame must land within frameTimeoutMs (a
/// fresh budget): a peer that starts a frame and stalls is a slow-client
/// fault, not an idle one. A length of 0 or > maxBytes returns kMalformed
/// without reading (or allocating for) the body.
IoStatus readFrame(int fd, std::vector<std::uint8_t>& body,
                   std::uint64_t maxBytes, const util::DeadlineBudget& idleBudget,
                   int frameTimeoutMs, const IoPacing& pacing);

/// Sends one `u64 length + body` frame within writeTimeoutMs. A peer that
/// will not drain its socket within the timeout gets kTimeout — the slow
/// reader is dropped, the daemon's thread is not held hostage.
IoStatus writeFrame(int fd, const std::uint8_t* body, std::size_t n,
                    int writeTimeoutMs, const IoPacing& pacing);

}  // namespace mpcspan::serve
