#include "runtime/shard/shm_ring.hpp"

#include <poll.h>
#include <sched.h>
#include <sys/mman.h>
#include <sys/socket.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <string>

namespace mpcspan::runtime::shard {

namespace {

[[noreturn]] void peerDied(const char* what) {
  throw ShardError(std::string("peer shard worker died mid-exchange (") +
                   what + ")");
}

/// One ring as seen by the exchange state machines.
struct RingView {
  RingHdr* h = nullptr;
  std::uint8_t* d = nullptr;
  std::uint64_t cap = 0;
};

/// Incoming frame: parse the length prefix at the consumed cursor, then
/// either wait for the whole body and hand out an in-place view, or copy
/// an oversized body out chunk by chunk (releasing ring space as we go).
struct ShmIn {
  RingView ring;
  bool haveLen = false;
  std::uint64_t bodyLen = 0;
  std::uint64_t bodyStart = 0;  // free-running position of the body
  bool contiguous = false;
  const std::uint8_t* viewPtr = nullptr;
  std::vector<std::uint8_t> heapBody;
  std::uint64_t bodyOff = 0;
  bool done = true;
};

/// Copies [bodyOff, bodyOff + n) of the logical body (rowCount word, then
/// rows) into the ring at byte offset `off` (caller guarantees no wrap).
void copyBodyChunk(const ShmSendFrame& o, std::uint64_t off, std::uint64_t n) {
  std::uint64_t src = o.bodyOff;
  std::uint8_t* dst = o.d + off;
  if (src < sizeof(o.rowCount)) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(&o.rowCount);
    const std::uint64_t k = std::min<std::uint64_t>(sizeof(o.rowCount) - src, n);
    std::memcpy(dst, p + src, k);
    src += k;
    dst += k;
    n -= k;
  }
  if (n > 0) std::memcpy(dst, o.rows + (src - sizeof(o.rowCount)), n);
}

/// Advances one outgoing frame as far as ring space allows. Returns true
/// if the produced cursor moved (the peer then needs a doorbell).
bool pumpShmSend(ShmSendFrame& o) {
  if (o.done) return false;
  RingHdr& h = *o.h;
  const std::uint64_t cap = o.cap;
  bool progress = false;
  for (;;) {
    const std::uint64_t produced = h.produced.load(std::memory_order_relaxed);
    const std::uint64_t consumed = h.consumed.load(std::memory_order_acquire);
    const std::uint64_t free = cap - (produced - consumed);
    const std::uint64_t off = produced & (cap - 1);
    if (o.stage == 0) {
      if (off + sizeof(std::uint64_t) > cap) {
        // Implicit filler: the length prefix never wraps, so both ends
        // skip the sub-8-byte tail without writing anything.
        const std::uint64_t pad = cap - off;
        if (free < pad) return progress;
        h.produced.store(produced + pad, std::memory_order_release);
        progress = true;
        continue;
      }
      if (o.contiguous && off + sizeof(std::uint64_t) + o.bodyLen > cap) {
        // The body would wrap: burn the rest of the ring behind an
        // explicit pad marker and restart the frame at the edge.
        if (free < cap - off) return progress;
        std::memcpy(o.d + off, &kPadMarker, sizeof(kPadMarker));
        h.produced.store(produced + (cap - off), std::memory_order_release);
        progress = true;
        continue;
      }
      if (o.contiguous) {
        if (free < sizeof(std::uint64_t) + o.bodyLen) return progress;
        std::memcpy(o.d + off, &o.bodyLen, sizeof(o.bodyLen));
        std::memcpy(o.d + off + 8, &o.rowCount, sizeof(o.rowCount));
        if (o.rowsLen > 0)
          std::memcpy(o.d + off + 16, o.rows, o.rowsLen);
        h.produced.store(produced + sizeof(std::uint64_t) + o.bodyLen,
                         std::memory_order_release);
        o.done = true;
        return true;
      }
      // Oversized body: place just the prefix, then stream.
      if (free < sizeof(std::uint64_t)) return progress;
      std::memcpy(o.d + off, &o.bodyLen, sizeof(o.bodyLen));
      h.produced.store(produced + sizeof(std::uint64_t),
                       std::memory_order_release);
      o.stage = 1;
      progress = true;
      continue;
    }
    if (o.bodyOff == o.bodyLen) {
      o.done = true;
      return true;
    }
    const std::uint64_t n =
        std::min({free, o.bodyLen - o.bodyOff, cap - off});
    if (n == 0) return progress;
    copyBodyChunk(o, off, n);
    h.produced.store(produced + n, std::memory_order_release);
    o.bodyOff += n;
    progress = true;
  }
}

/// Advances one incoming frame as far as produced bytes allow. Returns
/// true if the consumed cursor moved (the peer then needs a doorbell).
bool pumpShmRecv(ShmArena& arena, std::size_t from, std::size_t self,
                 ShmIn& in) {
  if (in.done) return false;
  RingHdr& h = *in.ring.h;
  const std::uint64_t cap = in.ring.cap;
  bool progress = false;
  for (;;) {
    const std::uint64_t produced = h.produced.load(std::memory_order_acquire);
    if (!in.haveLen) {
      const std::uint64_t consumed =
          h.consumed.load(std::memory_order_relaxed);
      if (produced == consumed) return progress;
      const std::uint64_t off = consumed & (cap - 1);
      if (off + sizeof(std::uint64_t) > cap) {
        // Implicit filler (the sender advanced past it in one store, so
        // produced already covers the whole skip).
        h.consumed.store(consumed + (cap - off), std::memory_order_release);
        progress = true;
        continue;
      }
      if (produced - consumed < sizeof(std::uint64_t)) return progress;
      std::uint64_t len;
      std::memcpy(&len, in.ring.d + off, sizeof(len));
      if (len == kPadMarker) {
        h.consumed.store(consumed + (cap - off), std::memory_order_release);
        progress = true;
        continue;
      }
      // Same plausibility vet as the tcp mesh: the body always leads
      // with a u64 row count, and nothing legitimate exceeds the frame
      // cap. A garbled ring header dies here, before any allocation.
      if (len < sizeof(std::uint64_t) || len > kMaxFrameBytes)
        throw ShardError("shm ring frame: implausible length");
      in.bodyLen = len;
      in.bodyStart = consumed + sizeof(std::uint64_t);
      in.contiguous = len <= cap - sizeof(std::uint64_t);
      in.haveLen = true;
      if (in.contiguous) {
        if ((in.bodyStart & (cap - 1)) + len > cap)
          throw ShardError("shm ring frame: wrapped contiguous body");
      } else {
        in.heapBody.resize(len);
        // Release the prefix now; body chunks release as they copy out.
        h.consumed.store(consumed + sizeof(std::uint64_t),
                         std::memory_order_release);
        progress = true;
      }
      continue;
    }
    if (in.contiguous) {
      if (produced < in.bodyStart + in.bodyLen) return progress;
      in.viewPtr = in.ring.d + (in.bodyStart & (cap - 1));
      arena.deferRelease(from, self, in.bodyStart + in.bodyLen);
      in.done = true;
      return progress;
    }
    if (in.bodyOff == in.bodyLen) {
      in.done = true;
      return progress;
    }
    const std::uint64_t consumed = h.consumed.load(std::memory_order_relaxed);
    const std::uint64_t avail = produced - consumed;
    if (avail == 0) return progress;
    const std::uint64_t off = consumed & (cap - 1);
    const std::uint64_t n =
        std::min({avail, in.bodyLen - in.bodyOff, cap - off});
    std::memcpy(in.heapBody.data() + in.bodyOff, in.ring.d + off, n);
    in.bodyOff += n;
    h.consumed.store(consumed + n, std::memory_order_release);
    progress = true;
  }
}

/// Nonblocking one-byte wakeup. EAGAIN means the peer has unread wakeups
/// queued already; EPIPE means the peer died, which the recv side reports.
void ringDoorbell(WireFd& fd) {
  const std::uint8_t b = 1;
  for (;;) {
    const ssize_t w = ::send(fd.fd(), &b, 1, MSG_NOSIGNAL);
    if (w >= 0 || errno != EINTR) return;
  }
}

/// Drains queued doorbell bytes. Returns false when the peer is gone
/// (EOF or a hard socket error) — the caller pumps the ring one last time
/// and only then decides whether the exchange is short.
bool drainDoorbell(WireFd& fd) {
  std::uint8_t buf[256];
  for (;;) {
    const ssize_t r = ::recv(fd.fd(), buf, sizeof(buf), 0);
    if (r > 0) continue;
    if (r == 0) return false;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    return false;
  }
}

}  // namespace

std::size_t defaultShmRingBytes() {
  constexpr std::size_t kDefault = std::size_t{1} << 20;  // 1 MiB
  constexpr std::size_t kMin = std::size_t{1} << 12;      // 4 KiB
  constexpr std::size_t kMax = std::size_t{1} << 30;      // 1 GiB
  const char* env = std::getenv("MPCSPAN_SHM_RING_BYTES");
  if (env == nullptr || *env == '\0') return kDefault;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(env, &end, 10);
  if (end == env) return kDefault;
  return std::bit_ceil(std::clamp<std::size_t>(
      static_cast<std::size_t>(v), kMin, kMax));
}

ShmArena::ShmArena(std::size_t workers, std::size_t ringBytes)
    : workers_(workers),
      ringBytes_(std::bit_ceil(ringBytes)),
      pending_(workers) {
  if (ringBytes_ < (std::size_t{1} << 12)) ringBytes_ = std::size_t{1} << 12;
  mapBytes_ = workers_ * workers_ * slotBytes();
  // Anonymous shared memory: every worker forked afterwards inherits the
  // same pages, there is no name to collide on or to orphan, and nothing
  // depends on /dev/shm.
  void* p = ::mmap(nullptr, mapBytes_, PROT_READ | PROT_WRITE,
                   MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED)
    throw ShardError(std::string("shm mmap: ") + std::strerror(errno));
  base_ = static_cast<std::uint8_t*>(p);
  // The mapping is zero-filled, which is exactly the initial cursor state.
}

ShmArena::~ShmArena() {
  if (base_ != nullptr) ::munmap(base_, mapBytes_);
}

RingHdr& ShmArena::hdr(std::size_t from, std::size_t to) const {
  return *reinterpret_cast<RingHdr*>(base_ +
                                     (from * workers_ + to) * slotBytes());
}

std::uint8_t* ShmArena::data(std::size_t from, std::size_t to) const {
  return base_ + (from * workers_ + to) * slotBytes() + sizeof(RingHdr);
}

void ShmArena::deferRelease(std::size_t from, std::size_t to,
                            std::uint64_t newConsumed) {
  pending_[to].push_back({from, newConsumed});
}

void ShmArena::releaseInbound(std::size_t to) {
  for (const Pending& p : pending_[to])
    hdr(p.from, to).consumed.store(p.newConsumed, std::memory_order_release);
  pending_[to].clear();
}

ShmSendState beginShmSend(ShmArena& arena, std::size_t self,
                          const std::vector<std::uint64_t>& counts,
                          const std::vector<WireWriter>& sections,
                          std::vector<WireFd>& doorbells) {
  const std::size_t n = doorbells.size();
  const std::uint64_t cap = arena.ringBytes();
  ShmSendState st;
  st.outs.resize(n);
  for (std::size_t t = 0; t < n; ++t) {
    if (t == self || !doorbells[t].valid()) continue;
    ShmSendFrame& o = st.outs[t];
    o.h = &arena.hdr(self, t);
    o.d = arena.data(self, t);
    o.cap = cap;
    o.rowCount = counts[t];
    o.rows = sections[t].data();
    o.rowsLen = sections[t].size();
    o.bodyLen = sizeof(std::uint64_t) + o.rowsLen;
    o.contiguous = o.bodyLen <= cap - sizeof(std::uint64_t);
    o.savedProduced = o.h->produced.load(std::memory_order_relaxed);
    o.done = false;
    // Pre-write as much as the ring accepts right now, and wake the
    // receiver: with the fused barrier a faster peer may already be
    // parked in its exchange poll waiting for exactly this frame (its
    // own opportunistic pump ran before these bytes existed).
    if (pumpShmSend(o)) ringDoorbell(doorbells[t]);
  }
  return st;
}

void abortShmSend(ShmSendState& st) {
  for (ShmSendFrame& o : st.outs) {
    if (o.h == nullptr) continue;
    // Receivers only read their rings after the go byte, and an aborted
    // round never issues one — nothing we pre-wrote was observed, so a
    // plain cursor rewind erases the frame on every peer at once.
    o.h->produced.store(o.savedProduced, std::memory_order_release);
    o.done = true;
  }
  st.outs.clear();
}

std::vector<WireReader> finishShmExchange(ShmArena& arena,
                                          std::vector<WireFd>& doorbells,
                                          std::size_t self, ShmSendState& st) {
  const std::size_t n = doorbells.size();
  const std::uint64_t cap = arena.ringBytes();
  std::vector<ShmSendFrame>& outs = st.outs;
  std::vector<ShmIn> ins(n);
  for (std::size_t t = 0; t < n; ++t) {
    if (t == self || !doorbells[t].valid()) continue;
    ins[t].ring = {&arena.hdr(t, self), arena.data(t, self), cap};
    ins[t].done = false;
  }

  // Opportunistic pass — in the steady state every ring-sized frame was
  // already placed by beginShmSend, so this pass completes the whole
  // exchange without ever touching the doorbells or poll.
  for (std::size_t t = 0; t < n; ++t) {
    if (t == self || !doorbells[t].valid()) continue;
    const bool sent = pumpShmSend(outs[t]);
    const bool got = pumpShmRecv(arena, t, self, ins[t]);
    if (sent || got) ringDoorbell(doorbells[t]);
  }

  // Bounded spin before blocking: under the fused barrier a missing frame
  // means its sender is at most one scheduling quantum behind, and a yield
  // is far cheaper than a sleep/wake cycle through the doorbell sockets.
  // The poll fallback below stays fully armed (senders always ring), so
  // exhausting the budget — e.g. against a dead peer — only defers the
  // same detection path.
  constexpr int kSpinYields = 64;
  for (int spin = 0; spin < kSpinYields; ++spin) {
    bool busy = false;
    for (std::size_t t = 0; t < n; ++t) {
      if (t == self || !doorbells[t].valid()) continue;
      if (outs[t].done && ins[t].done) continue;
      const bool sent = pumpShmSend(outs[t]);
      const bool got = pumpShmRecv(arena, t, self, ins[t]);
      if (sent || got) ringDoorbell(doorbells[t]);
      if (!outs[t].done || !ins[t].done) busy = true;
    }
    if (!busy) break;
    ::sched_yield();
  }

  std::vector<pollfd> pfds;
  std::vector<std::size_t> who;
  pfds.reserve(n);
  who.reserve(n);
  for (;;) {
    pfds.clear();
    who.clear();
    for (std::size_t t = 0; t < n; ++t) {
      if (t == self || !doorbells[t].valid()) continue;
      if (outs[t].done && ins[t].done) continue;
      pfds.push_back({doorbells[t].fd(), POLLIN, 0});
      who.push_back(t);
    }
    if (pfds.empty()) break;
    const int rc = ::poll(pfds.data(), pfds.size(), -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      throw ShardError(std::string("shm doorbell poll: ") +
                       std::strerror(errno));
    }
    for (std::size_t i = 0; i < pfds.size(); ++i) {
      const std::size_t t = who[i];
      const short re = pfds[i].revents;
      if (re == 0) continue;
      if ((re & POLLNVAL) != 0) peerDied("invalid doorbell fd");
      const bool alive = drainDoorbell(doorbells[t]);
      // Pump both directions before reacting to death: a dead peer's last
      // ring bytes are still mapped and may complete the frame.
      const bool got = pumpShmRecv(arena, t, self, ins[t]);
      const bool sent = pumpShmSend(outs[t]);
      if ((sent || got) && alive) ringDoorbell(doorbells[t]);
      if (!alive && (!ins[t].done || !outs[t].done)) peerDied("peer closed");
    }
  }

  std::vector<WireReader> frames(n);
  for (std::size_t t = 0; t < n; ++t) {
    if (t == self || !doorbells[t].valid()) continue;
    frames[t] = ins[t].contiguous
                    ? WireReader::view(ins[t].viewPtr, ins[t].bodyLen)
                    : WireReader::fromBytes(std::move(ins[t].heapBody));
  }
  return frames;
}

std::vector<WireReader> shmExchange(ShmArena& arena,
                                    std::vector<WireFd>& doorbells,
                                    std::size_t self,
                                    const std::vector<std::uint64_t>& counts,
                                    const std::vector<WireWriter>& sections) {
  ShmSendState st = beginShmSend(arena, self, counts, sections, doorbells);
  return finishShmExchange(arena, doorbells, self, st);
}

}  // namespace mpcspan::runtime::shard
