#include "serve/client.hpp"

#include <algorithm>
#include <chrono>
#include <span>
#include <thread>

namespace mpcspan::serve {

using runtime::shard::ShardError;

ServeClient::ServeClient(ClientOptions opts)
    : opts_(std::move(opts)), rng_(opts_.seed ^ 0x5e21e0d1c0ffee01ull) {}

void ServeClient::close() {
  conn_.reset();
  in_.clear();  // bytes of the old connection never parse as the next one's
  hello_.reset();
}

int ServeClient::backoffDelayMs(int attempt, const ClientOptions& opts,
                                Rng& rng) {
  const long long base = std::max(1, opts.backoffBaseMs);
  const long long cap = std::max(1, opts.backoffMaxMs);
  long long raw = base;
  for (int i = 0; i < attempt && raw < cap; ++i) raw <<= 1;
  raw = std::min(raw, cap);
  const double jitter = rng.uniform(0.5, 1.0);
  return std::max(1, static_cast<int>(static_cast<double>(raw) * jitter));
}

void ServeClient::ensureConnected() {
  if (conn_.valid()) return;
  std::string err;
  conn_ = util::dialTcp(opts_.host, opts_.port, opts_.connectTimeoutMs, err);
  if (!conn_.valid()) throw ServeTransportError("serve dial " + err);
  // Handshake: magic + version up, server identity down. A shed reply can
  // arrive here instead (the server sheds at accept time) — it surfaces as
  // ServeShedError, which the idempotent retry loops treat as "back off".
  WireWriter w;
  w.u8(kOpHello);
  encodeHelloRequest(w, HelloRequest{});
  const IoPacing pacing{};
  IoStatus st = writeFrame(conn_.fd(), w.data(), w.size(),
                           opts_.requestTimeoutMs, pacing);
  if (st != IoStatus::kOk) {
    close();
    throw ServeTransportError(std::string("serve hello write: ") +
                              ioStatusName(st));
  }
  std::span<const std::uint8_t> body;
  const util::DeadlineBudget idle(opts_.requestTimeoutMs);
  st = readFrame(conn_.fd(), in_, body, kMaxServeFrameBytes, idle,
                 opts_.requestTimeoutMs, pacing);
  if (st != IoStatus::kOk) {
    close();
    throw ServeTransportError(std::string("serve hello reply: ") +
                              ioStatusName(st));
  }
  WireReader r = WireReader::view(body);
  try {
    const std::uint8_t re = r.u8();
    if (re == kReShed) {
      const std::string msg = decodeText(r);
      close();
      throw ServeShedError(msg);
    }
    if (re == kReError) {
      const std::string msg = decodeText(r);
      close();
      throw ServeRemoteError(msg);
    }
    if (re != kReHello) {
      close();
      throw ServeTransportError("serve hello: unexpected reply opcode");
    }
    hello_ = decodeHelloInfo(r);
  } catch (const ShardError& e) {
    close();
    throw ServeTransportError(std::string("serve hello: malformed reply: ") +
                              e.what());
  }
}

WireReader ServeClient::requestOnce(const WireWriter& req,
                                    std::uint8_t expectRe) {
  ensureConnected();
  const IoPacing pacing{};
  IoStatus st = writeFrame(conn_.fd(), req.data(), req.size(),
                           opts_.requestTimeoutMs, pacing);
  if (st != IoStatus::kOk) {
    close();
    throw ServeTransportError(std::string("serve request write: ") +
                              ioStatusName(st));
  }
  std::span<const std::uint8_t> body;
  const util::DeadlineBudget idle(opts_.requestTimeoutMs);
  st = readFrame(conn_.fd(), in_, body, kMaxServeFrameBytes, idle,
                 opts_.requestTimeoutMs, pacing);
  if (st != IoStatus::kOk) {
    close();
    throw ServeTransportError(std::string("serve reply read: ") +
                              ioStatusName(st));
  }
  WireReader r = WireReader::view(body);
  try {
    const std::uint8_t re = r.u8();
    if (re == kReShed) {
      const std::string msg = decodeText(r);
      close();
      throw ServeShedError(msg);
    }
    if (re == kReError) throw ServeRemoteError(decodeText(r));
    if (re != expectRe) {
      close();
      throw ServeTransportError("serve reply: unexpected opcode");
    }
  } catch (const ShardError& e) {
    close();
    throw ServeTransportError(std::string("serve reply: malformed: ") +
                              e.what());
  }
  return r;
}

WireReader ServeClient::requestIdempotent(const WireWriter& req,
                                          std::uint8_t expectRe) {
  for (int attempt = 0;; ++attempt) {
    try {
      return requestOnce(req, expectRe);
    } catch (const ServeRemoteError&) {
      throw;  // the server understood and said no — retrying can't help
    } catch (const ServeError&) {
      if (attempt >= opts_.maxRetries) throw;
      std::this_thread::sleep_for(
          std::chrono::milliseconds(backoffDelayMs(attempt, opts_, rng_)));
    }
  }
}

WireAnswer ServeClient::query(VertexId u, VertexId v,
                              std::uint64_t deadlineMs) {
  WireWriter w;
  w.u8(kOpQuery);
  encodeQuery(w, {u, v, deadlineMs});
  WireReader r = requestIdempotent(w, kReAnswer);
  try {
    return decodeAnswer(r);
  } catch (const ShardError& e) {
    close();
    throw ServeTransportError(std::string("serve answer: malformed: ") +
                              e.what());
  }
}

ServeStats ServeClient::stats() {
  WireWriter w;
  w.u8(kOpStats);
  WireReader r = requestIdempotent(w, kReStats);
  try {
    return decodeStats(r);
  } catch (const ShardError& e) {
    close();
    throw ServeTransportError(std::string("serve stats: malformed: ") +
                              e.what());
  }
}

void ServeClient::ping() {
  WireWriter w;
  w.u8(kOpPing);
  (void)requestIdempotent(w, kReOk);
}

std::uint64_t ServeClient::reload(const std::string& path) {
  WireWriter w;
  w.u8(kOpReload);
  encodeText(w, path);
  // Single attempt by design: the first try may have landed server-side,
  // and reload is not idempotent (each success bumps the version).
  WireReader r = requestOnce(w, kReOk);
  try {
    return r.u64();
  } catch (const ShardError& e) {
    close();
    throw ServeTransportError(std::string("serve reload: malformed: ") +
                              e.what());
  }
}

HelloInfo ServeClient::serverInfo() {
  for (int attempt = 0;; ++attempt) {
    try {
      ensureConnected();
      return *hello_;
    } catch (const ServeRemoteError&) {
      throw;
    } catch (const ServeError&) {
      if (attempt >= opts_.maxRetries) throw;
      std::this_thread::sleep_for(
          std::chrono::milliseconds(backoffDelayMs(attempt, opts_, rng_)));
    }
  }
}

}  // namespace mpcspan::serve
