#include "serve/net.hpp"

#include <poll.h>
#include <signal.h>

namespace mpcspan::serve {

void ignoreSigpipe() {
  struct sigaction sa {};
  sa.sa_handler = SIG_IGN;
  (void)::sigaction(SIGPIPE, &sa, nullptr);
}

IoStatus readFrame(int fd, std::vector<std::uint8_t>& body,
                   std::uint64_t maxBytes,
                   const util::DeadlineBudget& idleBudget, int frameTimeoutMs,
                   const IoPacing& pacing) {
  // Idle wait: nothing of the frame has arrived yet.
  const IoStatus ready = util::awaitFd(fd, POLLIN, idleBudget, pacing);
  if (ready != IoStatus::kOk) return ready;
  // From the first byte on, the whole frame must land within its own
  // budget — a stalled sender is a fault, not idleness.
  const util::DeadlineBudget frameBudget(frameTimeoutMs);
  std::uint64_t len = 0;
  const IoStatus hdr =
      util::readBytes(fd, &len, sizeof(len), frameBudget, pacing);
  if (hdr != IoStatus::kOk) return hdr;
  if (len == 0 || len > maxBytes) return IoStatus::kMalformed;
  body.resize(len);
  return util::readBytes(fd, body.data(), len, frameBudget, pacing);
}

IoStatus writeFrame(int fd, const std::uint8_t* body, std::size_t n,
                    int writeTimeoutMs, const IoPacing& pacing) {
  const util::DeadlineBudget budget(writeTimeoutMs);
  const std::uint64_t len = n;
  const IoStatus hdr = util::writeBytes(fd, &len, sizeof(len), budget, pacing);
  if (hdr != IoStatus::kOk) return hdr;
  return util::writeBytes(fd, body, n, budget, pacing);
}

}  // namespace mpcspan::serve
