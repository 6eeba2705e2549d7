#include "runtime/shard/wire.hpp"

#include <sys/socket.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace mpcspan::runtime::shard {

void makeSocketPair(WireFd& parentEnd, WireFd& childEnd) {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, fds) != 0)
    throw ShardError(std::string("socketpair: ") + std::strerror(errno));
  parentEnd.reset(fds[0]);
  childEnd.reset(fds[1]);
}

void WireWriter::u64(std::uint64_t v) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
  buf_.insert(buf_.end(), p, p + sizeof(v));
}

void WireWriter::words(const Word* p, std::size_t n) {
  const auto* b = reinterpret_cast<const std::uint8_t*>(p);
  buf_.insert(buf_.end(), b, b + n * sizeof(Word));
}

void WireWriter::str(const std::string& s) {
  u64(s.size());
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void WireWriter::bytes(const std::uint8_t* p, std::size_t n) {
  buf_.insert(buf_.end(), p, p + n);
}

void WireWriter::row(std::uint64_t a, std::uint64_t b, const Word* w,
                     std::size_t n) {
  const std::uint64_t hdr[3] = {a, b, n};
  const auto* hp = reinterpret_cast<const std::uint8_t*>(hdr);
  buf_.insert(buf_.end(), hp, hp + sizeof(hdr));
  words(w, n);
}

void WireWriter::append(const WireWriter& other) {
  buf_.insert(buf_.end(), other.buf_.begin(), other.buf_.end());
}

WireReader WireReader::fromBytes(std::vector<std::uint8_t> bytes) {
  WireReader r;
  r.buf_ = std::move(bytes);
  r.data_ = r.buf_.data();
  r.size_ = r.buf_.size();
  return r;
}

WireReader WireReader::view(std::span<const std::uint8_t> bytes) {
  WireReader r;
  r.data_ = bytes.data();
  r.size_ = bytes.size();
  return r;
}

void WireReader::seek(std::size_t pos) {
  if (pos > size_) throw ShardError("shard wire frame: seek past end");
  pos_ = pos;
}

void WireReader::need(std::size_t n) const {
  // pos_ <= size_ always holds, so the subtraction cannot wrap; `pos_ + n`
  // could, for a corrupted wire-supplied length.
  if (n > size_ - pos_) throw ShardError("shard wire frame: truncated");
}

std::uint8_t WireReader::u8() {
  need(1);
  return data_[pos_++];
}

std::uint64_t WireReader::u64() {
  need(sizeof(std::uint64_t));
  std::uint64_t v;
  std::memcpy(&v, data_ + pos_, sizeof(v));
  pos_ += sizeof(v);
  return v;
}

std::string WireReader::str() {
  const std::uint64_t n = u64();
  need(n);
  std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
  pos_ += n;
  return s;
}

const std::uint8_t* WireReader::raw(std::size_t n) {
  need(n);
  const std::uint8_t* p = data_ + pos_;
  pos_ += n;
  return p;
}

void WireReader::words(Word* out, std::size_t n) {
  // n == 0 exits early: `out` may be a null data() of an empty vector, and
  // memcpy's nonnull contract holds even for zero-length copies.
  if (n == 0) return;
  // Reject before multiplying: n comes off the wire, n * sizeof(Word) wraps.
  if (n > remaining() / sizeof(Word))
    throw ShardError("shard wire frame: truncated");
  std::memcpy(out, data_ + pos_, n * sizeof(Word));
  pos_ += n * sizeof(Word);
}

}  // namespace mpcspan::runtime::shard
