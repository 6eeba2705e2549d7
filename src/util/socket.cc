#include "util/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace mpcspan::util {

void WireFd::reset(int fd) {
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
}

const char* ioStatusName(IoStatus s) {
  switch (s) {
    case IoStatus::kOk: return "ok";
    case IoStatus::kEof: return "eof";
    case IoStatus::kStopped: return "stopped";
    case IoStatus::kTimeout: return "timeout";
    case IoStatus::kMalformed: return "malformed";
    case IoStatus::kError: return "error";
  }
  return "?";
}

bool setNonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

IoStatus awaitFd(int fd, short events, const DeadlineBudget& budget,
                 const IoPacing& pacing) {
  for (;;) {
    if (pacing.stop != nullptr &&
        pacing.stop->load(std::memory_order_relaxed))
      return IoStatus::kStopped;
    // Re-read on every pass: an EINTR restart waits only for what is left.
    int waitMs = budget.remainingMs();
    if (waitMs == 0) return IoStatus::kTimeout;
    if (pacing.stop != nullptr) {
      const int slice = pacing.pollSliceMs > 0 ? pacing.pollSliceMs : 200;
      waitMs = waitMs < 0 ? slice : std::min(waitMs, slice);
    }
    pollfd pfd{fd, events, 0};
    const int rc = ::poll(&pfd, 1, waitMs);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return IoStatus::kError;
    }
    // POLLHUP/POLLERR fall through as ready: the read/write that follows
    // reports the accurate condition (EOF or errno).
    if (rc > 0) return IoStatus::kOk;
  }
}

IoStatus readBytes(int fd, void* buf, std::size_t n,
                   const DeadlineBudget& budget, const IoPacing& pacing) {
  std::size_t got = 0;
  return readAtLeast(fd, buf, n, n, got, budget, pacing);
}

IoStatus readAtLeast(int fd, void* buf, std::size_t min, std::size_t max,
                     std::size_t& got, const DeadlineBudget& budget,
                     const IoPacing& pacing) {
  auto* p = static_cast<std::uint8_t*>(buf);
  got = 0;
  while (got < min) {
    const ssize_t rc = ::recv(fd, p + got, max - got, 0);
    if (rc > 0) {
      got += static_cast<std::size_t>(rc);
      continue;
    }
    if (rc == 0) return IoStatus::kEof;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      const IoStatus st = awaitFd(fd, POLLIN, budget, pacing);
      if (st != IoStatus::kOk) return st;
      continue;
    }
    return IoStatus::kError;
  }
  return IoStatus::kOk;
}

namespace {

/// The errno of a failed send/sendmsg as a status (EAGAIN is the caller's).
IoStatus sendFailure() {
  if (errno == EPIPE || errno == ECONNRESET) return IoStatus::kEof;
  return IoStatus::kError;
}

}  // namespace

IoStatus writeBytes(int fd, const void* buf, std::size_t n,
                    const DeadlineBudget& budget, const IoPacing& pacing) {
  const auto* p = static_cast<const std::uint8_t*>(buf);
  std::size_t done = 0;
  while (done < n) {
    const ssize_t rc = ::send(fd, p + done, n - done, MSG_NOSIGNAL);
    if (rc > 0) {
      done += static_cast<std::size_t>(rc);
      continue;
    }
    if (rc == 0) return IoStatus::kError;  // send never returns 0 for n > 0
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      const IoStatus st = awaitFd(fd, POLLOUT, budget, pacing);
      if (st != IoStatus::kOk) return st;
      continue;
    }
    return sendFailure();
  }
  return IoStatus::kOk;
}

IoStatus writeBytes2(int fd, const void* hdr, std::size_t nHdr,
                     const void* body, std::size_t nBody,
                     const DeadlineBudget& budget, const IoPacing& pacing) {
  const auto* hp = static_cast<const std::uint8_t*>(hdr);
  const auto* bp = static_cast<const std::uint8_t*>(body);
  while (nHdr + nBody > 0) {
    iovec iov[2];
    int cnt = 0;
    if (nHdr > 0) iov[cnt++] = {const_cast<std::uint8_t*>(hp), nHdr};
    if (nBody > 0) iov[cnt++] = {const_cast<std::uint8_t*>(bp), nBody};
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = cnt;
    const ssize_t rc = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (rc < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        const IoStatus st = awaitFd(fd, POLLOUT, budget, pacing);
        if (st != IoStatus::kOk) return st;
        continue;
      }
      return sendFailure();
    }
    if (rc == 0) return IoStatus::kError;  // never for a nonempty iovec
    auto adv = static_cast<std::size_t>(rc);
    const std::size_t fromHdr = std::min(adv, nHdr);
    hp += fromHdr;
    nHdr -= fromHdr;
    adv -= fromHdr;
    bp += adv;
    nBody -= adv;
  }
  return IoStatus::kOk;
}

namespace {

std::string errnoText() { return std::strerror(errno); }

void setNodelay(int fd) {
  int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// Resolves host:port to one IPv4 address; false (err set) on failure.
bool resolveV4(const std::string& host, std::uint16_t port,
               sockaddr_in& addr, std::string& err) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const int gai =
      ::getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints, &res);
  if (gai != 0 || res == nullptr) {
    err = std::string("resolve failed: ") + ::gai_strerror(gai);
    return false;
  }
  addr = sockaddr_in{};
  std::memcpy(&addr, res->ai_addr,
              std::min(sizeof(addr), static_cast<std::size_t>(res->ai_addrlen)));
  ::freeaddrinfo(res);
  return true;
}

}  // namespace

WireFd dialTcp(const std::string& host, std::uint16_t port,
               int connectTimeoutMs, std::string& err) {
  const std::string where = host + ":" + std::to_string(port);
  sockaddr_in addr{};
  if (!resolveV4(host, port, addr, err)) {
    err = where + ": " + err;
    return WireFd();
  }
  WireFd owned(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0));
  if (!owned.valid()) {
    err = where + ": socket: " + errnoText();
    return WireFd();
  }
  if (::connect(owned.fd(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    if (errno != EINPROGRESS) {
      err = where + ": " + errnoText();
      return WireFd();
    }
    const IoStatus st = awaitFd(owned.fd(), POLLOUT,
                                DeadlineBudget(connectTimeoutMs), IoPacing{});
    if (st == IoStatus::kTimeout) {
      err = where + ": connect timed out after " +
            std::to_string(connectTimeoutMs) + " ms";
      return WireFd();
    }
    if (st != IoStatus::kOk) {
      err = where + ": connect poll: " + errnoText();
      return WireFd();
    }
    int soErr = 0;
    socklen_t errLen = sizeof(soErr);
    if (::getsockopt(owned.fd(), SOL_SOCKET, SO_ERROR, &soErr, &errLen) != 0 ||
        soErr != 0) {
      err = where + ": " + std::strerror(soErr != 0 ? soErr : errno);
      return WireFd();
    }
  }
  setNodelay(owned.fd());
  return owned;
}

WireFd listenTcp(const std::string& host, std::uint16_t port, int backlog,
                 std::uint16_t* boundPort, std::string& err) {
  const std::string where = host + ":" + std::to_string(port);
  sockaddr_in addr{};
  if (!resolveV4(host, port, addr, err)) {
    err = where + ": " + err;
    return WireFd();
  }
  WireFd owned(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0));
  if (!owned.valid()) {
    err = "socket " + where + ": " + errnoText();
    return WireFd();
  }
  int one = 1;
  (void)::setsockopt(owned.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(owned.fd(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    err = "bind " + where + ": " + errnoText();
    return WireFd();
  }
  if (::listen(owned.fd(), backlog > 0 ? backlog : SOMAXCONN) != 0) {
    err = "listen " + where + ": " + errnoText();
    return WireFd();
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(owned.fd(), reinterpret_cast<sockaddr*>(&addr), &len) !=
      0) {
    err = "getsockname " + where + ": " + errnoText();
    return WireFd();
  }
  if (boundPort != nullptr) *boundPort = ntohs(addr.sin_port);
  return owned;
}

WireFd acceptOn(int listenFd) {
  for (;;) {
    const int conn =
        ::accept4(listenFd, nullptr, nullptr, SOCK_CLOEXEC | SOCK_NONBLOCK);
    if (conn >= 0) {
      setNodelay(conn);
      return WireFd(conn);
    }
    if (errno == EINTR) continue;
    // EAGAIN: nothing pending. Anything else (ECONNABORTED, EMFILE burst,
    // proto errors) is a per-connection transient for a daemon; errno
    // stays set so a caller with a stricter failure model can tell.
    return WireFd();
  }
}

}  // namespace mpcspan::util
