// The worker-to-worker data path of a round.
//
//   - meshExchange: every worker ships its cross-shard sections straight to
//     the destination workers over its mesh row (the connections
//     formTcpMesh opened); the coordinator never relays a payload byte, it
//     only arbitrates the round barrier, so per-round coordinator traffic
//     is O(shards).
//   - mergeSectionRows: the one section decoder the receivers run.
//
// A section is (src, dst, len, words) rows in (src asc, send-position asc)
// order, and receivers merge sections in ascending source shard order — so
// sharded rounds are bit-identical to in-process ones by construction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "runtime/shard/transport.hpp"
#include "runtime/shard/wire.hpp"
#include "runtime/types.hpp"

namespace mpcspan::runtime::shard {

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
/// rather than resetting a per-wait timer). The resident workers pass the
/// round's shared budget, seeded from their channel deadline, so a
/// half-open or throttled remote cannot hang the round; null means
/// unbounded.
std::vector<WireReader> meshExchange(std::vector<WireFd>& peers,
                                     std::size_t self,
                                     const std::vector<std::uint64_t>& counts,
                                     const std::vector<WireWriter>& sections,
                                     const DeadlineBudget* budget = nullptr);

/// Merges `count` section rows (src, dst, len, words) — the rest of the
/// frame — into the projected round view, appending each row to
/// projected[src] (peer = dst): pass 1 vets every header (src in
/// [srcLo, srcHi) and never descending, dst in [dstLo, dstHi), len against
/// the bytes actually remaining — all before any multiplication that could
/// wrap), counts rows and words per source, and requires the rows to end
/// the frame; pass 2 rewinds and copies each row's words, once, into the
/// exactly-reserved rows. A corrupt frame throws ShardError before any row
/// is consumed; projected[] is only touched once the whole section has been
/// vetted, and every section that merges re-encodes to its own bytes.
void mergeSectionRows(WireReader& r, std::uint64_t count, std::size_t srcLo,
                      std::size_t srcHi, std::size_t dstLo, std::size_t dstHi,
                      std::vector<WordRows>& projected);

}  // namespace mpcspan::runtime::shard
