// Shared-memory ring transport for the resident worker mesh.
//
// With the shm exchange selected (Transport::kShmRing — the default), every
// ordered worker pair (a → b) shares one fixed-size SPSC byte ring inside a
// single mmap(MAP_SHARED | MAP_ANONYMOUS) arena that the coordinator
// creates *before the first fork*, so every worker inherits the same pages
// and no named object exists to collide on or to orphan. Senders serialize
// each cross-shard section exactly once, straight into the ring (same frame
// bytes as the tcp mesh: `u64 bodyLen | u64 rowCount | rows`); receivers
// parse a
// frame that fits the ring *in place* through a non-owning WireReader view
// and only release the ring span after the merge has consumed it
// (ShmArena::releaseInbound), so a cross-shard payload is copied exactly
// once on the whole path — ring bytes into the receiver's delivery arena.
//
// A socketpair mesh (peer_mesh.hpp makeMesh) stays underneath as the
// wakeup channel only: a worker that advances its ring (produced or
// consumed) rings a one-byte doorbell so a blocked peer re-pumps. Doorbell
// sends are nonblocking and EAGAIN is safely ignored — a full doorbell
// buffer means the peer already has wakeups queued. Peer death: the
// doorbell socket reports EOF, the survivor drains the ring one last time,
// and an incomplete frame becomes the same "peer shard worker died
// mid-exchange" ShardError the tcp mesh raises.
//
// Frame placement rules (both ends compute from the same free-running
// stream position, so no flags cross the wire):
//   - the 8-byte length prefix never wraps: a position within 8 bytes of
//     the ring edge is an implicit filler the sender skips and the
//     receiver skips identically;
//   - a body that fits the ring (bodyLen <= cap - 8) is kept contiguous:
//     if it would wrap, the sender writes a kPadMarker length and restarts
//     the frame at the ring edge, and the receiver hands out a zero-copy
//     view of the body;
//   - a larger body streams through the ring in chunks, the receiver
//     copying into a heap frame and releasing ring space as it goes
//     (backpressure: sender and receiver ping-pong on the doorbell).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "runtime/shard/wire.hpp"

namespace mpcspan::runtime::shard {

/// Producer/consumer cursors of one ring, each on its own cache line so
/// the two sides never false-share. Positions are free-running byte
/// offsets (never wrapped); `pos & (cap - 1)` is the ring offset.
struct alignas(64) RingHdr {
  std::atomic<std::uint64_t> produced;
  char pad0[64 - sizeof(std::atomic<std::uint64_t>)];
  std::atomic<std::uint64_t> consumed;
  char pad1[64 - sizeof(std::atomic<std::uint64_t>)];
};
static_assert(sizeof(RingHdr) == 128, "two cache lines");
static_assert(std::atomic<std::uint64_t>::is_always_lock_free,
              "shm ring cursors must be lock-free across processes");

/// Length-prefix value that can never be a real body length (it exceeds
/// kMaxFrameBytes): "skip to the ring edge and re-read the prefix there".
constexpr std::uint64_t kPadMarker = ~0ull;

/// Ring capacity in bytes: MPCSPAN_SHM_RING_BYTES rounded up to a power of
/// two and clamped to [4 KiB, 1 GiB]; 1 MiB when unset.
std::size_t defaultShmRingBytes();

/// The process-shared arena: workers * workers ring slots (diagonal
/// unused), one anonymous shared mapping created pre-fork so every worker
/// inherits it; it lives exactly as long as the processes that hold it.
/// Throws ShardError when the mapping fails.
class ShmArena {
 public:
  ShmArena(std::size_t workers, std::size_t ringBytes = defaultShmRingBytes());
  ~ShmArena();

  ShmArena(const ShmArena&) = delete;
  ShmArena& operator=(const ShmArena&) = delete;

  std::size_t workers() const { return workers_; }
  std::size_t ringBytes() const { return ringBytes_; }

  /// The (from → to) ring's cursors / data bytes.
  RingHdr& hdr(std::size_t from, std::size_t to) const;
  std::uint8_t* data(std::size_t from, std::size_t to) const;

  /// Records that the (from → to) ring's consumed cursor must advance to
  /// `newConsumed` once the in-place frame view has been merged. Pending
  /// entries are kept per receiver, so each worker (or test thread playing
  /// one) only ever touches its own list.
  void deferRelease(std::size_t from, std::size_t to,
                    std::uint64_t newConsumed);
  /// Applies every release deferred for receiver `to`. Must run after the
  /// merge consumed the frame views and before the worker waits for its
  /// verdict — the barrier then guarantees no peer writes the next round's
  /// frame into a span that is still being read.
  void releaseInbound(std::size_t to);

 private:
  std::size_t slotBytes() const { return sizeof(RingHdr) + ringBytes_; }

  std::uint8_t* base_ = nullptr;
  std::size_t mapBytes_ = 0;
  std::size_t workers_ = 0;
  std::size_t ringBytes_ = 0;

  struct Pending {
    std::size_t from;
    std::uint64_t newConsumed;
  };
  std::vector<std::vector<Pending>> pending_;  // indexed by receiver
};

/// One outgoing frame's progress through its ring. `stage` 0 is still
/// placing the length prefix (and, for ring-sized bodies, the whole frame
/// at once); stage 1 streams an oversized body chunk by chunk.
struct ShmSendFrame {
  RingHdr* h = nullptr;
  std::uint8_t* d = nullptr;
  std::uint64_t cap = 0;
  std::uint64_t rowCount = 0;
  const std::uint8_t* rows = nullptr;  // borrowed from the caller's section
  std::uint64_t rowsLen = 0;
  std::uint64_t bodyLen = 0;
  std::uint64_t bodyOff = 0;
  std::uint64_t savedProduced = 0;  // rewind point for an aborted round
  int stage = 0;
  bool contiguous = false;
  bool done = true;
};

/// The send half of one STEP round's exchange, indexed by peer shard.
struct ShmSendState {
  std::vector<ShmSendFrame> outs;
};

/// Starts shipping this round's sections: writes as much of every outbound
/// frame as its ring accepts *right now*, without blocking, and rings the
/// doorbell for every ring it advanced — a peer that already reached its
/// own exchange may be parked in poll waiting for exactly this frame.
/// Called straight after phase-A compute, before the barrier report; in the
/// steady state (empty rings) every ring-sized frame is fully placed here
/// and finishShmExchange never blocks. The sections must outlive the
/// returned state (rows are borrowed).
ShmSendState beginShmSend(ShmArena& arena, std::size_t self,
                          const std::vector<std::uint64_t>& counts,
                          const std::vector<WireWriter>& sections,
                          std::vector<WireFd>& doorbells);

/// Rewinds every outbound ring's produced cursor to its pre-frame
/// position, erasing frames no receiver has started reading (a sender that
/// gives up on a round before any peer drained it).
void abortShmSend(ShmSendState& st);

/// Completes the exchange: finishes any oversized sends and receives one
/// frame from every peer's (t → self) ring, multiplexed on the doorbell
/// sockets (`doorbells` is the worker's mesh row). Returns
/// the frame bodies indexed by peer shard (empty reader at `self`), each
/// positioned at its leading row count — in-place ring views for bodies
/// that fit the ring (release them with arena.releaseInbound(self) after
/// merging), owned heap frames for larger bodies. Same body bytes, same
/// ShardError surface as the tcp mesh's meshExchange.
std::vector<WireReader> finishShmExchange(ShmArena& arena,
                                          std::vector<WireFd>& doorbells,
                                          std::size_t self, ShmSendState& st);

/// beginShmSend + finishShmExchange in one call (unit tests and one-shot
/// exchanges; the engine splits the two around the barrier).
std::vector<WireReader> shmExchange(ShmArena& arena,
                                    std::vector<WireFd>& doorbells,
                                    std::size_t self,
                                    const std::vector<std::uint64_t>& counts,
                                    const std::vector<WireWriter>& sections);

}  // namespace mpcspan::runtime::shard
