// Wire protocol of the distance-serving daemon (mpcspand): request/reply
// opcodes, frame limits, and the typed encode/decode helpers both the
// server sessions and serve/client.hpp speak.
//
// The codec discipline is inherited from runtime/shard/wire.hpp: every
// frame is `u64 length + body`, fields are host-endian u8/u64/str appended
// by WireWriter and vetted by WireReader (short frame -> ShardError, never
// an over-read). On top of that the serve layer adds what a *public* port
// needs and the trusted shard mesh does not:
//   - a hello with magic + version, so a stray client of the wrong protocol
//     gets a typed error instead of garbage answers;
//   - a 1 MiB frame cap (kMaxServeFrameBytes) — no legitimate request or
//     reply is near it, so a bigger length prefix can only be garbage and
//     is rejected before any allocation;
//   - typed error and shed replies, so the client can tell "retry later"
//     (shed, transport) from "your request is wrong" (error).
#pragma once

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "query/tiered.hpp"
#include "runtime/shard/wire.hpp"

namespace mpcspan::serve {

using runtime::shard::WireReader;
using runtime::shard::WireWriter;

/// Base of every client-visible serve failure.
class ServeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The transport broke (connect/read/write failed, timeout, peer died,
/// malformed reply). Retriable for idempotent requests.
class ServeTransportError : public ServeError {
 public:
  using ServeError::ServeError;
};

/// The server shed the request under overload. Retriable with backoff.
class ServeShedError : public ServeError {
 public:
  using ServeError::ServeError;
};

/// The server understood the request and rejected it (bad vertex id,
/// reload of a corrupt artifact, version mismatch). Not retriable.
class ServeRemoteError : public ServeError {
 public:
  using ServeError::ServeError;
};

/// "MPSD" little-endian — distinct from the shard mesh's magic, so a serve
/// client dialing a shard port (or vice versa) fails the handshake loudly.
inline constexpr std::uint64_t kServeMagic = 0x4453504Dull;
inline constexpr std::uint8_t kServeVersion = 1;

/// No legitimate serve frame is near 1 MiB (stats with every tier is a few
/// hundred bytes); larger length prefixes are treated as garbage.
inline constexpr std::uint64_t kMaxServeFrameBytes = 1ull << 20;

/// QUERY deadline sentinel: "use the server's configured default".
inline constexpr std::uint64_t kDeadlineDefault = ~0ull;

// Request opcodes (first byte of every client -> server frame).
inline constexpr std::uint8_t kOpHello = 1;
inline constexpr std::uint8_t kOpQuery = 2;
inline constexpr std::uint8_t kOpStats = 3;
inline constexpr std::uint8_t kOpReload = 4;
inline constexpr std::uint8_t kOpPing = 5;

// Reply opcodes (first byte of every server -> client frame). High bit set
// so a desynced stream can never alias a request.
inline constexpr std::uint8_t kReHello = 0x81;
inline constexpr std::uint8_t kReAnswer = 0x82;
inline constexpr std::uint8_t kReStats = 0x83;
inline constexpr std::uint8_t kReOk = 0x84;
inline constexpr std::uint8_t kReError = 0x85;
inline constexpr std::uint8_t kReShed = 0x86;

/// A client's opening request: who it is and which protocol it speaks.
struct HelloRequest {
  std::uint64_t magic = kServeMagic;
  std::uint8_t version = kServeVersion;
};

/// One distance query as sent.
struct QueryRequest {
  std::uint64_t u = 0;
  std::uint64_t v = 0;
  std::uint64_t deadlineMs = kDeadlineDefault;
};

/// What the server tells a client at handshake.
struct HelloInfo {
  std::uint64_t snapshotVersion = 0;  // bumps on every successful reload
  std::uint64_t numVertices = 0;
  double composedStretch = 1.0;  // certified envelope of exact:no, tiers:yes
};

/// One answered distance query plus its degradation certificate — the wire
/// form of TieredOracle::BudgetedAnswer, stamped with the snapshot that
/// produced it.
struct WireAnswer {
  double dist = 0;
  std::int64_t tier = -1;  // answering tier index; -1 = all declined
  bool degraded = false;   // a more accurate tier was skipped for budget
  double stretch = 1.0;    // stretchBound() of the answering tier
  std::uint64_t snapshotVersion = 0;
};

/// Everything the daemon's STATS command reports: snapshot identity, query
/// totals, the robustness counters (shed/slow/malformed/reload), and the
/// per-tier oracle breakdown.
struct ServeStats {
  std::uint64_t snapshotVersion = 0;
  std::uint64_t numVertices = 0;
  std::uint64_t accepted = 0;        // connections accepted (not shed)
  std::uint64_t activeSessions = 0;  // currently being served
  std::uint64_t queries = 0;         // QUERY frames answered
  std::uint64_t degraded = 0;        // ... of which budget-degraded
  std::uint64_t shedQueueFull = 0;   // connections shed at the watermark
  std::uint64_t slowClientDrops = 0;  // sessions dropped for stalled I/O
  std::uint64_t malformedFrames = 0;  // frames rejected by the codec
  std::uint64_t reloadsOk = 0;
  std::uint64_t reloadsFailed = 0;  // rejected artifacts (old one kept)
  std::vector<query::TierStats> tiers;
};

inline void putF64(WireWriter& w, double v) {
  w.u64(std::bit_cast<std::uint64_t>(v));
}
inline double getF64(WireReader& r) { return std::bit_cast<double>(r.u64()); }

// Body encoders/decoders (the opcode byte is written/consumed by the
// caller). Each decoder consumes the rest of the frame and accepts only
// what its encoder writes: a truncated body, trailing bytes or an
// out-of-range flag byte throw ShardError, so every frame that decodes
// re-encodes to the same bytes.
void encodeHelloRequest(WireWriter& w, const HelloRequest& h);
HelloRequest decodeHelloRequest(WireReader& r);

void encodeQuery(WireWriter& w, const QueryRequest& q);
QueryRequest decodeQuery(WireReader& r);

/// The one-string body of kReError, kReShed and kOpReload.
void encodeText(WireWriter& w, const std::string& s);
std::string decodeText(WireReader& r);

void encodeHelloInfo(WireWriter& w, const HelloInfo& h);
HelloInfo decodeHelloInfo(WireReader& r);

void encodeAnswer(WireWriter& w, const WireAnswer& a);
WireAnswer decodeAnswer(WireReader& r);

void encodeStats(WireWriter& w, const ServeStats& s);
ServeStats decodeStats(WireReader& r);

}  // namespace mpcspan::serve
