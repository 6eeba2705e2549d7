// mpcspand — the long-lived distance-serving daemon.
//
// Loads a query artifact (mpcspan build-oracle), assembles the tiered
// query plane, and answers distance queries over a length-prefixed socket
// protocol until SIGTERM/SIGINT. SIGHUP (or a client RELOAD command) hot-
// swaps the artifact without dropping a single in-flight query; a corrupt
// replacement is rejected and the old snapshot keeps serving.
//
//   mpcspan build-oracle --n 2000 --k 6 --out g.mpqa
//   mpcspand --artifact g.mpqa --port 7021 &
//   mpcspan query --connect 127.0.0.1:7021 --u 3 --v 99
//   kill -HUP $!    # reload g.mpqa in place
//   kill $!         # clean shutdown, exit 0
//
// Exit status: 0 clean shutdown, 1 fatal (the artifact would not load, the
// port would not bind), 2 usage error (an unknown flag, no --artifact, a
// --port outside 0..65535, an integer flag outside its range).
//
// Signal handling is self-pipe only: the handlers write one byte ('T'
// terminate, 'H' reload) to the server's nonblocking signal fd and do
// nothing else — every async-signal-safety question ends there.
#include <signal.h>
#include <unistd.h>

#include <cstdio>
#include <exception>
#include <limits>
#include <stdexcept>

#include "runtime/thread_pool.hpp"
#include "serve/server.hpp"
#include "util/args.hpp"

namespace {

int gSignalFd = -1;

// The largest --queue: more connections than any listen backlog holds.
constexpr std::int64_t kMaxQueue = 1 << 16;

void onTerm(int) {
  const char c = 'T';
  if (gSignalFd >= 0) (void)!::write(gSignalFd, &c, 1);
}

void onHup(int) {
  const char c = 'H';
  if (gSignalFd >= 0) (void)!::write(gSignalFd, &c, 1);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mpcspan;
  std::setvbuf(stdout, nullptr, _IOLBF, 0);  // greppable from a pipe/log

  ArgParser args("mpcspand",
                 "distance-serving daemon over a saved query artifact");
  args.flag("artifact", "", "query artifact path (required)")
      .flag("host", "127.0.0.1", "listen address")
      .flag("port", "0", "listen port (0 = ephemeral, printed at startup)")
      .flag("threads", "4", "session threads")
      .flag("queue", "64", "accept-queue watermark (connections beyond it are shed)")
      .flag("deadline-ms", "-1",
            "default per-query deadline budget; queries past it answer from "
            "a cheaper tier with the degraded flag (-1 = unbounded)")
      .flag("frame-timeout-ms", "10000", "budget for a started frame to finish arriving")
      .flag("write-timeout-ms", "10000", "budget for a reply to drain to the client");
  if (!args.parse(argc, argv)) {
    std::fprintf(stderr, "error: %s\n\n%s", args.error().c_str(),
                 args.usage().c_str());
    return 2;
  }
  if (args.helpRequested()) {
    std::fputs(args.usage().c_str(), stdout);
    return 0;
  }

  try {
    if (args.get("artifact").empty())
      throw std::invalid_argument("mpcspand requires --artifact <path>");

    serve::ServerOptions opts;
    opts.artifactPath = args.get("artifact");
    opts.host = args.get("host");
    opts.port = parsePort(args.get("port"), /*dial=*/false);
    constexpr std::int64_t kMaxMs = std::numeric_limits<int>::max();
    opts.sessionThreads = static_cast<std::size_t>(
        args.getInt("threads", 1, runtime::kMaxThreads));
    opts.queueCapacity =
        static_cast<std::size_t>(args.getInt("queue", 1, kMaxQueue));
    opts.defaultDeadlineMs =
        static_cast<int>(args.getInt("deadline-ms", -1, kMaxMs));
    opts.frameTimeoutMs =
        static_cast<int>(args.getInt("frame-timeout-ms", 1, kMaxMs));
    opts.writeTimeoutMs =
        static_cast<int>(args.getInt("write-timeout-ms", 1, kMaxMs));

    serve::Server server(opts);
    server.start();  // installs the process-wide SIGPIPE ignore

    gSignalFd = server.signalFd();
    struct sigaction sa {};
    sa.sa_handler = onTerm;
    ::sigaction(SIGTERM, &sa, nullptr);
    ::sigaction(SIGINT, &sa, nullptr);
    sa.sa_handler = onHup;
    ::sigaction(SIGHUP, &sa, nullptr);

    const serve::ServeStats s = server.statsSnapshot();
    std::fprintf(stdout,
                 "mpcspand: serving %s (snapshot v%llu, n=%llu) listening on "
                 "%s:%u\n",
                 opts.artifactPath.c_str(),
                 static_cast<unsigned long long>(s.snapshotVersion),
                 static_cast<unsigned long long>(s.numVertices),
                 opts.host.c_str(), server.port());

    server.waitUntilStopRequested();
    gSignalFd = -1;
    server.stop();
    std::fprintf(stdout, "mpcspand: clean shutdown\n");
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mpcspand: fatal: %s\n", e.what());
    return 1;
  }
  return 0;
}
