#include "runtime/shard/transport.hpp"

#include <cerrno>
#include <cstring>
#include <string>
#include <utility>

#include "util/socket.hpp"

namespace mpcspan::runtime::shard {

namespace {

/// Turns a non-OK transfer status into the shard layer's ShardError.
void check(util::IoStatus st, const char* dir, int deadlineMs) {
  switch (st) {
    case util::IoStatus::kOk:
      return;
    case util::IoStatus::kEof:
      throw ShardError(std::string("shard wire ") + dir +
                       ": peer closed (worker died?)");
    case util::IoStatus::kTimeout:
      throw ShardError("tcp channel timed out after " +
                       std::to_string(deadlineMs) +
                       " ms (peer hung or unreachable)");
    default:
      throw ShardError(std::string("shard wire ") + dir + ": " +
                       std::strerror(errno));
  }
}

}  // namespace

Channel::Channel(WireFd fd, int deadlineMs)
    : fd_(std::move(fd)), deadlineMs_(deadlineMs) {
  if (fd_.valid() && !util::setNonblocking(fd_.fd()))
    throw ShardError(std::string("channel fcntl: ") + std::strerror(errno));
}

void Channel::readAll(void* buf, std::size_t n) {
  check(util::readBytes(fd_.fd(), buf, n, DeadlineBudget(deadlineMs_),
                        util::IoPacing{}),
        "read", deadlineMs_);
}

void Channel::writeAll(const void* buf, std::size_t n) {
  check(util::writeBytes(fd_.fd(), buf, n, DeadlineBudget(deadlineMs_),
                         util::IoPacing{}),
        "write", deadlineMs_);
}

void Channel::writeAll2(const void* hdr, std::size_t nHdr, const void* body,
                        std::size_t nBody) {
  check(util::writeBytes2(fd_.fd(), hdr, nHdr, body, nBody,
                          DeadlineBudget(deadlineMs_), util::IoPacing{}),
        "write", deadlineMs_);
}

// The frame helpers live here, not in wire.cc, so the wire layer keeps zero
// knowledge of transports.

void WireWriter::sendFramed(Channel& ch) const {
  const std::uint64_t len = buf_.size();
  ch.writeAll2(&len, sizeof(len), buf_.data(), buf_.size());
}

WireReader WireReader::recvFramed(Channel& ch) {
  std::uint64_t len = 0;
  ch.readAll(&len, sizeof(len));
  if (len > kMaxFrameBytes)
    throw ShardError("shard wire frame: implausible length (corrupt prefix)");
  std::vector<std::uint8_t> body(len);
  if (len > 0) ch.readAll(body.data(), len);
  return fromBytes(std::move(body));
}

}  // namespace mpcspan::runtime::shard
