// Worker-to-worker mesh pieces shared by both shard transports.
//
//   - makeMesh: one nonblocking AF_UNIX socketpair per worker pair, created
//     by the coordinator *before the first fork* so each worker inherits
//     exactly its own row. Under the shm transport these sockets only ring
//     doorbells (shm_ring.hpp); no payload byte crosses them.
//   - meshExchange: the tcp mesh's data path — every worker ships its
//     cross-shard sections straight to the destination workers; the
//     coordinator never relays a payload byte, it only arbitrates the round
//     barrier, so per-round coordinator traffic is O(shards).
//   - mergeSectionRows: the one section decoder both transports feed.
//
// The section row format ((src, dst, len, words) per row, rows in (src asc,
// send-position asc) order within a section) is the same on both
// transports, and receivers merge sections in ascending source shard order
// — so shm and tcp rounds are bit-identical by construction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "runtime/arena.hpp"
#include "runtime/shard/transport.hpp"
#include "runtime/shard/wire.hpp"
#include "runtime/types.hpp"

namespace mpcspan::runtime::shard {

/// Switches a mesh fd to nonblocking mode (the mode meshExchange requires;
/// also used on tcp mesh fds after their blocking handshake).
void setNonBlocking(const WireFd& fd);

/// Creates the full worker mesh: one nonblocking socketpair per unordered
/// worker pair (count * (count - 1) / 2 pairs). mesh[a][b] is a's end of
/// the (a, b) pair; the diagonal stays invalid. Must run before the first
/// worker fork; worker s keeps row s and closes every other row's fds, the
/// coordinator closes the whole matrix once all workers forked.
std::vector<std::vector<WireFd>> makeMesh(std::size_t count);

/// Full-duplex one-frame-each exchange over a worker's mesh row: sends
/// peer t the frame `u64 bodyLen | u64 counts[t] | sections[t] row bytes`
/// and receives exactly one such frame from every peer, multiplexed with
/// poll() so arbitrarily large frames cannot deadlock on full socket
/// buffers (no pairwise send/recv ordering is ever relied on). Returns the
/// received frame bodies indexed by peer shard (empty reader at `self`),
/// each positioned at its leading row count. A peer that dies mid-exchange
/// (EOF, EPIPE, ECONNRESET) throws ShardError — the worker exits and the
/// coordinator turns the dropped verdict into ShardError for everyone.
/// `budget` bounds the *whole* exchange (ShardError once it expires, no
/// matter how the waits were sliced — a trickling peer spends the budget
/// rather than resetting a per-wait timer). Same-host meshes pass null /
/// an unbounded budget (peer death always surfaces as an fd event there);
/// tcp meshes pass the round's shared budget, seeded from their channel
/// deadline, so a half-open or throttled remote cannot hang the round.
std::vector<WireReader> meshExchange(std::vector<WireFd>& peers,
                                     std::size_t self,
                                     const std::vector<std::uint64_t>& counts,
                                     const std::vector<WireWriter>& sections,
                                     const DeadlineBudget* budget = nullptr);

/// Merges `count` section rows (src, dst, len, words) into the projected
/// round view: pass 1 vets every header (src in [srcLo, srcHi), dst in
/// [dstLo, dstHi), len against the bytes actually remaining — all before
/// any multiplication that could wrap) and counts rows per source; pass 2
/// rewinds and fills the exactly-reserved vectors. A corrupt frame throws
/// ShardError before any row is consumed; projected[] is only touched once
/// the whole section has been vetted.
///
/// With a non-null `arena`, multi-word payloads are copied once from the
/// frame into arena runs and delivered as Payload::borrowed — no per-row
/// heap vector. The borrowed payloads are valid until the caller resets
/// that arena (the resident workers double-buffer two delivery arenas and
/// reset the incoming one at the top of each merge, so payloads installed
/// in round N die when round N + 2 starts merging).
void mergeSectionRows(WireReader& r, std::uint64_t count, std::size_t srcLo,
                      std::size_t srcHi, std::size_t dstLo, std::size_t dstHi,
                      std::vector<std::vector<Message>>& projected,
                      Arena* arena = nullptr);

}  // namespace mpcspan::runtime::shard
