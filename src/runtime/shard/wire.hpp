// Byte-level framing between the ShardedEngine coordinator and its shard
// workers: the frame builder and reader, the socketpair factory, and the
// ShardError every transport failure surfaces as.
//
// The framing is deliberately dumb — host-endian u64/u8 fields appended to a
// flat buffer, sent as one `u64 length + body` frame per protocol phase —
// because both ends are always the same binary (workers are fork()ed or run
// the same-build mpcspan_worker; the tcp handshake's version byte pins the
// latter). The bytes move through a Channel (transport.hpp), which paces
// util/socket's nonblocking I/O and throws ShardError on short reads/writes,
// peer death, or an expired deadline; the engine converts that into a loud
// round failure rather than a hang.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "runtime/types.hpp"
#include "util/socket.hpp"

namespace mpcspan::runtime::shard {

class Channel;  // transport.hpp — the deadline-paced owner of a WireFd

/// Transport-layer failure between the coordinator and a shard worker (a
/// worker died mid-round, a socket broke). Distinct from CapacityError: this
/// is an infrastructure fault, not an algorithm/model violation.
class ShardError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A legitimate frame serializes a subset of round state that already fits
/// in the sending process's memory; a length beyond this cap can only be a
/// garbled prefix. Both the coordinator wire and the worker mesh reject it
/// as ShardError instead of attempting a zero-filled overcommit allocation.
constexpr std::uint64_t kMaxFrameBytes = 1ull << 34;  // 16 GiB

/// The owning socket end (util/socket.hpp). Its I/O goes through Channel
/// (transport.hpp); the mesh pumps drive the raw fd themselves.
using util::WireFd;

/// Creates a connected nonblocking AF_UNIX stream socketpair (parent end,
/// child end): two Channel or mesh ends within one host, without a
/// rendezvous.
void makeSocketPair(WireFd& parentEnd, WireFd& childEnd);

/// Append-only frame builder.
class WireWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u64(std::uint64_t v);
  void words(const Word* p, std::size_t n);
  void str(const std::string& s);
  /// Raw byte append (re-scattering a slice another frame carried).
  void bytes(const std::uint8_t* p, std::size_t n);

  /// One (a, b, payload-length) header triple plus the payload words — the
  /// row format of the cross-shard sections — appended with two bulk
  /// inserts instead of four per-field ones (the resident hot path).
  void row(std::uint64_t a, std::uint64_t b, const Word* w, std::size_t n);

  /// Appends another writer's buffer verbatim (used to concatenate
  /// per-destination fragments built in parallel).
  void append(const WireWriter& other);

  std::size_t size() const { return buf_.size(); }
  const std::uint8_t* data() const { return buf_.data(); }

  /// Sends `u64 length + body` as one frame (one gathered syscall when the
  /// socket buffer has room), honoring the channel's deadline. Defined in
  /// transport.cc: the wire layer keeps no knowledge of transports.
  void sendFramed(Channel& ch) const;

 private:
  std::vector<std::uint8_t> buf_;
};

/// Cursor over one received frame, owning its bytes or viewing them.
class WireReader {
 public:
  /// Receives one `u64 length + body` frame, honoring the channel's
  /// deadline (defined in transport.cc). A length beyond kMaxFrameBytes
  /// throws ShardError before anything is allocated.
  static WireReader recvFramed(Channel& ch);
  /// Wraps an already-received (or test-crafted) frame body; the mesh
  /// exchange collects peer frames itself and hands the bytes here.
  static WireReader fromBytes(std::vector<std::uint8_t> bytes);
  /// Reads a frame body in place, without copying it: the bytes must
  /// outlive the reader (the serve layer's per-connection receive buffer).
  static WireReader view(std::span<const std::uint8_t> bytes);

  WireReader() = default;
  WireReader(const WireReader&) = delete;
  WireReader& operator=(const WireReader&) = delete;
  // A moved vector keeps its heap buffer, so data_ stays valid.
  WireReader(WireReader&& o) noexcept
      : buf_(std::move(o.buf_)),
        data_(std::exchange(o.data_, nullptr)),
        size_(std::exchange(o.size_, 0)),
        pos_(std::exchange(o.pos_, 0)) {}
  WireReader& operator=(WireReader&& o) noexcept {
    buf_ = std::move(o.buf_);
    data_ = std::exchange(o.data_, nullptr);
    size_ = std::exchange(o.size_, 0);
    pos_ = std::exchange(o.pos_, 0);
    return *this;
  }

  std::uint8_t u8();
  std::uint64_t u64();
  std::string str();
  /// Reads n words into out (which must have room for n).
  void words(Word* out, std::size_t n);
  /// Vets and consumes n bytes (n is wire-supplied), returning a pointer
  /// into the frame buffer (valid while this reader lives) — copy-free
  /// re-scattering.
  const std::uint8_t* raw(std::size_t n);
  bool atEnd() const { return pos_ == size_; }
  /// Unread bytes left in the frame — lets callers sanity-check a
  /// wire-supplied element count before sizing containers by it.
  std::size_t remaining() const { return size_ - pos_; }
  /// Cursor save/restore for two-pass parses (vet + count, rewind, fill).
  std::size_t pos() const { return pos_; }
  void seek(std::size_t pos);

 private:
  void need(std::size_t n) const;

  std::vector<std::uint8_t> buf_;  // owned bytes; empty for a view
  const std::uint8_t* data_ = nullptr;  // the frame: buf_ or the viewed bytes
  std::size_t size_ = 0;
  std::size_t pos_ = 0;
};

}  // namespace mpcspan::runtime::shard
