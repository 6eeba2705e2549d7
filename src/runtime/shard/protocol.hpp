// Wire protocol shared by the sharded-engine coordinator, the resident
// worker loop, and the standalone `mpcspan_worker` attach tool: control
// opcodes, barrier verdicts, error-kind tags, and the frame helpers both
// sides use to speak them.
//
// Everything here used to live in sharded_engine.cc's anonymous namespace;
// it moved out when Transport::kTcp made the worker loop reachable from a
// *different binary* (tools/mpcspan_worker), which must agree with the
// coordinator on every byte. The frame helpers are templated over the wire
// type so the same code drives a raw WireFd and a Channel (resident
// workers, deadline-paced tcp channels).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "runtime/shard/wire.hpp"
#include "runtime/types.hpp"
#include "util/deadline.hpp"

namespace mpcspan::runtime::shard {

// Error kinds carried in a worker's report headers. The exception type
// cannot cross the process boundary, so it travels as a tag and is re-thrown
// coordinator-side.
inline constexpr std::uint8_t kOk = 0;
inline constexpr std::uint8_t kCapacityKind = 1;
inline constexpr std::uint8_t kBoundsKind = 2;
inline constexpr std::uint8_t kOtherKind = 3;
inline constexpr std::uint8_t kRangeKind = 4;

// Control-frame opcodes of the resident worker protocol (first byte of
// every coordinator -> worker frame).
inline constexpr std::uint8_t kOpExchange = 1;
inline constexpr std::uint8_t kOpStep = 2;
inline constexpr std::uint8_t kOpLocal = 3;
inline constexpr std::uint8_t kOpFetchKernel = 4;
inline constexpr std::uint8_t kOpRegisterKernel = 5;
inline constexpr std::uint8_t kOpStoreBlocks = 6;
inline constexpr std::uint8_t kOpFetchBlocks = 7;
inline constexpr std::uint8_t kOpFreeBlocks = 8;
inline constexpr std::uint8_t kOpFetchInboxes = 9;
inline constexpr std::uint8_t kOpShutdown = 10;
// Remote-attach provisioning: the engine state a fork snapshot would have
// carried (dimensions, topology descriptor, kernel names, blocks),
// sent to a worker that dialed in over tcp instead of being forked. See
// worker_loop.hpp.
inline constexpr std::uint8_t kOpSetup = 11;

// Barrier verdicts (1-byte frame bodies). Only kGo commits; any other value
// (including a stray opcode) reads as abort, so a desynced stream can never
// be mistaken for a commit.
inline constexpr std::uint8_t kAbort = 0;
inline constexpr std::uint8_t kGo = 1;

/// One worker's {kind, words | error} report.
struct Report {
  std::uint8_t kind = kOk;
  std::uint64_t words = 0;
  std::string err;
};

/// Re-throws a reported error coordinator-side with its original type.
[[noreturn]] void rethrow(std::uint8_t kind, const std::string& msg);

/// Classifies an in-flight exception for the wire (the inverse of rethrow).
/// Must be called from inside a catch block.
std::uint8_t classify(std::string& err);

/// Briefly spin-polls a wire for readability before the caller blocks on
/// it. The one-report barrier turns a round into pure hand-offs (reports
/// up, one verdict frame down); letting each side stay runnable while the
/// other finishes converts those hand-offs into cheap runqueue rotations
/// instead of sleep/wake cycles — a woken sleeper preempts its waker, so
/// blocking doubles the context switches per round. Bounded: an idle
/// engine still parks in the normal blocking read. A non-null `budget`
/// (the round's shared deadline budget) stops the spin early once the
/// round is out of time, so the expiry surfaces from the blocking read
/// instead of being hidden behind yields.
void spinAwaitReadable(int fd, const util::DeadlineBudget* budget = nullptr);

/// Broadcast kernel args on the wire: u64 count + words.
void writeArgs(WireWriter& w, const std::vector<Word>& args);
std::vector<Word> readArgs(WireReader& r);

/// Serializes one machine's outbox section in the parseRows format.
void writeRows(WireWriter& w, const std::vector<Message>& outbox);

/// Reference to one message of a projected round view, in global delivery
/// order (source id, send position).
struct Ref {
  std::uint32_t src;
  std::uint32_t pos;
};

/// Index pass over a projected view: per local destination d in [lo, hi),
/// the refs of its deliveries in (src, pos) order — which *is* the
/// in-process delivery order, because projection preserves each source's
/// send-position order and the scan walks sources ascending. Under
/// priority-write only the first ref per destination is kept.
std::vector<std::vector<Ref>> indexByDst(
    const std::vector<std::vector<Message>>& projected, std::size_t lo,
    std::size_t hi, bool priorityWrite);

/// Parses one shard's per-machine section of a frame into rows[m] for m in
/// [lo, hi): a u64 count, then (u64 id, u64 len, len words) per row. Row is
/// Message (id = dst) or Delivery (id = src). Wire-supplied sizes are vetted
/// against the frame's remaining bytes before sizing any container, so a
/// corrupt frame throws ShardError, never bad_alloc.
template <class Row>
void parseRows(WireReader& r, std::size_t lo, std::size_t hi,
               std::vector<std::vector<Row>>& rows) {
  std::vector<Word> scratch;
  for (std::size_t m = lo; m < hi; ++m) {
    const std::uint64_t count = r.u64();
    // A row is at least two u64s.
    if (count > r.remaining() / (2 * sizeof(std::uint64_t)))
      throw ShardError("shard wire frame: corrupt row count");
    rows[m].reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
      const std::uint64_t id = r.u64();
      const std::uint64_t len = r.u64();
      if (len > r.remaining() / sizeof(Word))
        throw ShardError("shard wire frame: corrupt payload length");
      scratch.resize(len);
      r.words(scratch.data(), len);
      rows[m].push_back(
          {static_cast<std::size_t>(id), Payload(scratch.data(), len)});
    }
  }
}

/// Sends a {kind, words | error} report. Wire is WireFd or Channel.
template <class Wire>
void writeReport(Wire& fd, std::uint8_t kind, const std::string& err,
                 std::uint64_t words = 0) {
  WireWriter w;
  w.u8(kind);
  if (kind == kOk)
    w.u64(words);
  else
    w.str(err);
  w.sendFramed(fd);
}

template <class Wire>
Report readReport(Wire& fd) {
  WireReader r = WireReader::recvFramed(fd);
  Report rep;
  rep.kind = r.u8();
  if (rep.kind == kOk)
    rep.words = r.u64();
  else
    rep.err = r.str();
  return rep;
}

}  // namespace mpcspan::runtime::shard
