#include "serve/net.hpp"

#include <poll.h>
#include <signal.h>

#include <cstring>

namespace mpcspan::serve {

void ignoreSigpipe() {
  struct sigaction sa {};
  sa.sa_handler = SIG_IGN;
  (void)::sigaction(SIGPIPE, &sa, nullptr);
}

IoStatus RecvBuffer::fill(int fd, std::size_t need,
                          const util::DeadlineBudget& budget,
                          const IoPacing& pacing) {
  if (pending() >= need) return IoStatus::kOk;
  if (bytes_.size() - begin_ < need) {
    // Slide the pending bytes to the front; grow only if that is not enough.
    std::memmove(bytes_.data(), bytes_.data() + begin_, pending());
    end_ -= begin_;
    begin_ = 0;
    if (bytes_.size() < need) bytes_.resize(need);
  }
  std::size_t got = 0;
  const IoStatus st =
      util::readAtLeast(fd, bytes_.data() + end_, need - pending(),
                        bytes_.size() - end_, got, budget, pacing);
  end_ += got;
  return st;
}

IoStatus readFrame(int fd, RecvBuffer& in, std::span<const std::uint8_t>& body,
                   std::uint64_t maxBytes,
                   const util::DeadlineBudget& idleBudget, int frameTimeoutMs,
                   const IoPacing& pacing) {
  if (in.bytes_.size() < RecvBuffer::kInitialBytes)
    in.bytes_.resize(RecvBuffer::kInitialBytes);
  if (in.pending() == 0) {
    // Idle wait: nothing of the frame has arrived yet. The last body handed
    // out is released, so the next recv may use the whole buffer.
    in.clear();
    const IoStatus ready = util::awaitFd(fd, POLLIN, idleBudget, pacing);
    if (ready != IoStatus::kOk) return ready;
  }
  // From the first byte on, the whole frame must land within its own
  // budget — a stalled sender is a fault, not idleness.
  const util::DeadlineBudget frameBudget(frameTimeoutMs);
  std::uint64_t len = 0;
  const IoStatus hdr = in.fill(fd, sizeof(len), frameBudget, pacing);
  if (hdr != IoStatus::kOk) return hdr;
  std::memcpy(&len, in.bytes_.data() + in.begin_, sizeof(len));
  if (len == 0 || len > maxBytes) return IoStatus::kMalformed;
  const std::size_t total = sizeof(len) + static_cast<std::size_t>(len);
  const IoStatus st = in.fill(fd, total, frameBudget, pacing);
  if (st != IoStatus::kOk) return st;
  body = {in.bytes_.data() + in.begin_ + sizeof(len),
          static_cast<std::size_t>(len)};
  in.begin_ += total;
  return IoStatus::kOk;
}

IoStatus writeFrame(int fd, const std::uint8_t* body, std::size_t n,
                    int writeTimeoutMs, const IoPacing& pacing) {
  const std::uint64_t len = n;
  return util::writeBytes2(fd, &len, sizeof(len), body, n,
                           util::DeadlineBudget(writeTimeoutMs), pacing);
}

}  // namespace mpcspan::serve
