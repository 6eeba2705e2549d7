#include "runtime/shard/peer_mesh.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <string>
#include <utility>

namespace mpcspan::runtime::shard {

namespace {

[[noreturn]] void peerDied(const char* what) {
  throw ShardError(std::string("peer shard worker died mid-exchange (") +
                   what + ")");
}

/// Outgoing frame: a 16-byte header (frame length, row count) gathered with
/// the section's row bytes; one logical offset across both pieces.
struct PeerOut {
  std::uint64_t hdr[2] = {0, 0};
  const std::uint8_t* rows = nullptr;
  std::size_t rowsLen = 0;
  std::size_t off = 0;
  std::size_t total = 0;

  bool done() const { return off == total; }
};

/// Incoming frame: the 8-byte length prefix, then the body.
struct PeerIn {
  std::uint8_t lenBuf[8];
  std::size_t lenOff = 0;
  bool haveLen = false;
  std::vector<std::uint8_t> body;
  std::size_t bodyOff = 0;
  bool done = false;
};

/// Drains one peer's send state as far as the socket accepts (nonblocking).
void pumpSend(WireFd& fd, PeerOut& out) {
  while (!out.done()) {
    iovec iov[2];
    int cnt = 0;
    const auto* hp = reinterpret_cast<const std::uint8_t*>(out.hdr);
    if (out.off < sizeof(out.hdr))
      iov[cnt++] = {const_cast<std::uint8_t*>(hp + out.off),
                    sizeof(out.hdr) - out.off};
    const std::size_t bodyOff =
        out.off < sizeof(out.hdr) ? 0 : out.off - sizeof(out.hdr);
    if (bodyOff < out.rowsLen)
      iov[cnt++] = {const_cast<std::uint8_t*>(out.rows + bodyOff),
                    out.rowsLen - bodyOff};
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = cnt;
    const ssize_t w = ::sendmsg(fd.fd(), &msg, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      peerDied(std::strerror(errno));
    }
    out.off += static_cast<std::size_t>(w);
  }
}

/// Drains one peer's receive state as far as the socket has bytes.
void pumpRecv(WireFd& fd, PeerIn& in) {
  while (!in.done) {
    std::uint8_t* dst;
    std::size_t want;
    if (!in.haveLen) {
      dst = in.lenBuf + in.lenOff;
      want = sizeof(in.lenBuf) - in.lenOff;
    } else {
      dst = in.body.data() + in.bodyOff;
      want = in.body.size() - in.bodyOff;
    }
    const ssize_t r = ::recv(fd.fd(), dst, want, 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      peerDied(std::strerror(errno));
    }
    if (r == 0) peerDied("peer closed");
    if (!in.haveLen) {
      in.lenOff += static_cast<std::size_t>(r);
      if (in.lenOff == sizeof(in.lenBuf)) {
        std::uint64_t len;
        std::memcpy(&len, in.lenBuf, sizeof(len));
        // The body always starts with a u64 row count; anything shorter (or
        // beyond the frame cap) is a corrupt prefix, not a short frame.
        if (len < sizeof(std::uint64_t) || len > kMaxFrameBytes)
          throw ShardError("peer mesh frame: implausible length");
        in.body.resize(len);
        in.haveLen = true;
      }
    } else {
      in.bodyOff += static_cast<std::size_t>(r);
      if (in.bodyOff == in.body.size()) in.done = true;
    }
  }
}

}  // namespace

std::vector<WireReader> meshExchange(std::vector<WireFd>& peers,
                                     std::size_t self,
                                     const std::vector<std::uint64_t>& counts,
                                     const std::vector<WireWriter>& sections,
                                     const DeadlineBudget* budget) {
  const std::size_t n = peers.size();
  std::vector<PeerOut> outs(n);
  std::vector<PeerIn> ins(n);
  for (std::size_t t = 0; t < n; ++t) {
    if (t == self || !peers[t].valid()) {
      ins[t].done = true;
      continue;
    }
    outs[t].hdr[0] = sizeof(std::uint64_t) + sections[t].size();
    outs[t].hdr[1] = counts[t];
    outs[t].rows = sections[t].data();
    outs[t].rowsLen = sections[t].size();
    outs[t].total = sizeof(outs[t].hdr) + outs[t].rowsLen;
  }

  // Opportunistic first pass — small frames complete without ever polling.
  for (std::size_t t = 0; t < n; ++t) {
    if (t == self || !peers[t].valid()) continue;
    if (!outs[t].done()) pumpSend(peers[t], outs[t]);
    if (!ins[t].done) pumpRecv(peers[t], ins[t]);
  }

  std::vector<pollfd> pfds;
  std::vector<std::size_t> who;
  pfds.reserve(n);
  who.reserve(n);
  for (;;) {
    pfds.clear();
    who.clear();
    for (std::size_t t = 0; t < n; ++t) {
      if (t == self || !peers[t].valid()) continue;
      short events = 0;
      if (!outs[t].done()) events |= POLLOUT;
      if (!ins[t].done) events |= POLLIN;
      if (events == 0) continue;
      pfds.push_back({peers[t].fd(), events, 0});
      who.push_back(t);
    }
    if (pfds.empty()) break;
    // One budget across every wait of the exchange: remainingMs() shrinks
    // monotonically, so partial progress (a peer trickling bytes) cannot
    // stretch the round past the budget's total.
    const int waitMs = budget != nullptr ? budget->remainingMs() : -1;
    const int rc = ::poll(pfds.data(), pfds.size(), waitMs);
    if (rc < 0) {
      if (errno == EINTR) continue;
      throw ShardError(std::string("peer mesh poll: ") + std::strerror(errno));
    }
    if (rc == 0)
      throw ShardError("peer mesh exchange exceeded its round budget of " +
                       std::to_string(budget != nullptr ? budget->totalMs()
                                                        : waitMs) +
                       " ms (peer hung, trickling, or unreachable)");
    for (std::size_t i = 0; i < pfds.size(); ++i) {
      const std::size_t t = who[i];
      const short re = pfds[i].revents;
      if (re == 0) continue;
      // Read before reacting to HUP/ERR: a dead peer's final bytes may
      // still be queued, and recv reports the true failure.
      if ((re & (POLLIN | POLLHUP | POLLERR)) && !ins[t].done)
        pumpRecv(peers[t], ins[t]);
      if ((re & (POLLOUT | POLLHUP | POLLERR)) && !outs[t].done())
        pumpSend(peers[t], outs[t]);
      if ((re & POLLNVAL) != 0) peerDied("invalid mesh fd");
    }
  }

  std::vector<WireReader> frames(n);
  for (std::size_t t = 0; t < n; ++t)
    if (t != self && peers[t].valid())
      frames[t] = WireReader::fromBytes(std::move(ins[t].body));
  return frames;
}

void mergeSectionRows(WireReader& r, std::uint64_t count, std::size_t srcLo,
                      std::size_t srcHi, std::size_t dstLo, std::size_t dstHi,
                      std::vector<std::vector<Message>>& projected,
                      Arena* arena) {
  // A row is at least three u64 headers; vet the count before any pass.
  if (count > r.remaining() / (3 * sizeof(std::uint64_t)))
    throw ShardError("shard wire frame: corrupt row count");
  const std::size_t mark = r.pos();
  std::vector<std::uint32_t> perSrc(srcHi - srcLo, 0);
  std::uint64_t prevSrc = srcLo;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t src = r.u64();
    const std::uint64_t dst = r.u64();
    const std::uint64_t len = r.u64();
    if (src < srcLo || src >= srcHi || dst < dstLo || dst >= dstHi)
      throw ShardError("shard wire frame: row out of range");
    // Senders scan their machines ascending, so rows arrive src-sorted.
    if (src < prevSrc) throw ShardError("shard wire frame: rows out of order");
    prevSrc = src;
    if (len > r.remaining() / sizeof(Word))
      throw ShardError("shard wire frame: corrupt payload length");
    (void)r.raw(len * sizeof(Word));  // skip the payload; need() re-vets
    ++perSrc[src - srcLo];
  }
  // A count that undercounts the rows would otherwise drop the tail.
  if (!r.atEnd()) throw ShardError("shard wire frame: trailing bytes");
  r.seek(mark);
  for (std::size_t src = srcLo; src < srcHi; ++src)
    if (perSrc[src - srcLo] > 0)
      projected[src].reserve(projected[src].size() + perSrc[src - srcLo]);
  std::vector<Word> scratch;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t src = r.u64();
    const std::uint64_t dst = r.u64();
    const std::uint64_t len = r.u64();
    if (arena != nullptr && len > 1) {
      Word* run = arena->allocate(len);
      r.words(run, len);
      projected[src].push_back(
          {static_cast<std::size_t>(dst), Payload::borrowed(run, len)});
      continue;
    }
    scratch.resize(len);
    r.words(scratch.data(), len);
    projected[src].push_back(
        {static_cast<std::size_t>(dst), Payload(scratch.data(), len)});
  }
}

}  // namespace mpcspan::runtime::shard
