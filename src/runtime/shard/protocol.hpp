// Wire protocol shared by the sharded-engine coordinator, the resident
// worker loop, and the standalone `mpcspan_worker` attach tool: control
// opcodes, barrier verdicts, error-kind tags, and the frame helpers both
// sides use to speak them.
//
// The worker loop is reachable from a *different binary*
// (tools/mpcspan_worker), which must agree with the coordinator on every
// byte. Every frame helper speaks through a Channel (transport.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "runtime/shard/transport.hpp"
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
// every coordinator -> worker frame). Opcode 1 is retired and stays
// unassigned, so a stale coordinator sending it fails through the worker's
// unknown-opcode path.
inline constexpr std::uint8_t kOpStep = 2;
inline constexpr std::uint8_t kOpLocal = 3;
inline constexpr std::uint8_t kOpFetchKernel = 4;
inline constexpr std::uint8_t kOpRegisterKernel = 5;
inline constexpr std::uint8_t kOpStoreBlocks = 6;
inline constexpr std::uint8_t kOpFetchBlocks = 7;
inline constexpr std::uint8_t kOpFreeBlocks = 8;
inline constexpr std::uint8_t kOpFetchInboxes = 9;
inline constexpr std::uint8_t kOpShutdown = 10;
// Provisioning: the first frame every worker reads after the roster —
// dimensions, topology descriptor, kernel names, and the shard's block
// slice. See worker_loop.hpp.
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

/// The report whose error a failed STEP surfaces (reports.size() if none):
/// a kernel throw before a bounds error before a budget error, as one
/// slice checks them in-process, then the first in shard order.
std::size_t failedReport(const std::vector<Report>& reports);

/// Re-throws a reported error coordinator-side with its original type.
[[noreturn]] void rethrow(std::uint8_t kind, const std::string& msg);

/// Classifies an in-flight exception for the wire (the inverse of rethrow).
/// Must be called from inside a catch block.
std::uint8_t classify(std::string& err);

/// Briefly spin-polls a wire for readability before the caller waits on
/// it. The one-report barrier turns a round into pure hand-offs (reports
/// up, one verdict frame down); letting each side stay runnable while the
/// other finishes converts those hand-offs into cheap runqueue rotations
/// instead of sleep/wake cycles — a woken sleeper preempts its waker, so
/// sleeping doubles the context switches per round. Bounded: an idle
/// engine still parks in the channel read's poll. A non-null `budget`
/// (the round's shared deadline budget) stops the spin early once the
/// round is out of time, so the expiry surfaces from the channel read
/// instead of being hidden behind yields.
void spinAwaitReadable(int fd, const util::DeadlineBudget* budget = nullptr);

/// Broadcast kernel args on the wire: u64 count + words.
void writeArgs(WireWriter& w, const std::vector<Word>& args);
std::vector<Word> readArgs(WireReader& r);

/// The FETCH_INBOXES reply body: per inbox, a u64 row count, then
/// (u64 src, u64 len, len words) per row.
void writeInboxes(WireWriter& w, const std::vector<WordRows>& inboxes);
/// Decodes a writeInboxes body of `machines` inboxes whose sources are
/// machines of an engine of `numMachines`. Each count and length is checked
/// against the bytes left before anything is sized by it; a short body, a
/// source outside the engine, or bytes past the last inbox throw ShardError.
std::vector<WordRows> readInboxes(WireReader& r, std::size_t machines,
                                  std::size_t numMachines);

/// Sends a {kind, words | error} report.
void writeReport(Channel& ch, std::uint8_t kind, const std::string& err,
                 std::uint64_t words = 0);
Report readReport(Channel& ch);

}  // namespace mpcspan::runtime::shard
