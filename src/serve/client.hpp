// ServeClient: the daemon's counterpart — connect/request timeouts, typed
// errors, and bounded exponential-backoff retries with jitter.
//
// Retry policy: only *transport* faults (connect/read/write failed, timed
// out, malformed reply) and *shed* replies are retried, and only for
// idempotent reads (query/stats/ping). A reload is never retried — the
// first attempt may have landed and a second would double-bump the
// snapshot version behind the operator's back. A remote error ("your
// request is wrong") is never retried: the server already understood it.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "graph/graph.hpp"
#include "serve/net.hpp"
#include "serve/protocol.hpp"
#include "util/rng.hpp"

namespace mpcspan::serve {

struct ClientOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  int connectTimeoutMs = 2000;
  int requestTimeoutMs = 5000;
  /// Retries after the first attempt (0 = single attempt).
  int maxRetries = 3;
  int backoffBaseMs = 25;
  int backoffMaxMs = 500;
  std::uint64_t seed = 1;  // jitter stream
};

class ServeClient {
 public:
  explicit ServeClient(ClientOptions opts);
  ~ServeClient() = default;
  ServeClient(const ServeClient&) = delete;
  ServeClient& operator=(const ServeClient&) = delete;

  /// One distance query. deadlineMs = kDeadlineDefault lets the server
  /// apply its configured default. Retried (idempotent).
  WireAnswer query(VertexId u, VertexId v,
                   std::uint64_t deadlineMs = kDeadlineDefault);

  /// Daemon counters. Retried (idempotent).
  ServeStats stats();

  /// Liveness probe. Retried (idempotent).
  void ping();

  /// Asks the daemon to load `path` (empty = its current artifact path)
  /// and swap it in. NOT retried; returns the new snapshot version.
  /// Throws ServeRemoteError if the daemon rejected the artifact.
  std::uint64_t reload(const std::string& path);

  /// Handshake info of the current connection (connects if needed).
  HelloInfo serverInfo();

  /// Drops the connection and any reply bytes still buffered from it; the
  /// next request redials.
  void close();

  /// Backoff before retry `attempt` (0-based): min(maxMs, base << attempt)
  /// scaled by uniform jitter in [0.5, 1.0) — a fleet of clients bounced
  /// by the same shed wave must not reconverge in lockstep. Exposed for
  /// tests.
  static int backoffDelayMs(int attempt, const ClientOptions& opts, Rng& rng);

 private:
  void ensureConnected();
  /// One attempt of one request frame: send, read reply, vet the reply
  /// opcode. Throws the typed ServeError hierarchy. The returned reader
  /// views the reply inside in_: decode it before the next request.
  WireReader requestOnce(const WireWriter& req, std::uint8_t expectRe);
  /// Retry loop around requestOnce for idempotent requests.
  WireReader requestIdempotent(const WireWriter& req, std::uint8_t expectRe);

  ClientOptions opts_;
  WireFd conn_;
  RecvBuffer in_;  // conn_'s receive side; cleared with it in close()
  std::optional<HelloInfo> hello_;
  Rng rng_;
};

}  // namespace mpcspan::serve
