// mpcspan_worker — standalone shard worker and rendezvous coordinator.
//
// Two modes, both ends of the same rendezvous (see
// src/runtime/shard/tcp_transport.hpp):
//
//   mpcspan_worker --connect host:port --shard k [--timeout ms]
//     Attaches shard k to a coordinator that is awaiting remote workers
//     (MPCSPAN_TCP_REMOTE=1) through attachTcpWorker, the same library path
//     the engine's forked workers run: an epoch-0 control hello, the
//     roster and the SETUP frame that provisions every worker, the tcp
//     peer mesh, then the resident command loop until SHUTDOWN. A kernel
//     is a name in the global registry, resolved against this binary's, so
//     the coordinator and the workers must run the same build (a worker
//     from another protocol version fails at the hello).
//
//   mpcspan_worker --coordinate S --port P [--machines N] [--rounds R]
//                  [--threads T] [--timeout ms]
//     Hosts a sharded MPC run with S shards and waits for every shard to
//     attach via --connect. Drives R rounds of a
//     deterministic probe kernel and prints the fetched state checksum —
//     the same workload however the workers attach (or, with 1 shard, in
//     process), so CI can diff the checksums of all three runs.
//
// Exit status: 0 clean, 1 ShardError (rendezvous failure, peer death,
// timeout — the failure modes CI's fault-injection smoke greps for),
// 2 usage error.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <vector>

#include "runtime/kernel.hpp"
#include "runtime/round_engine.hpp"
#include "runtime/shard/tcp_transport.hpp"
#include "runtime/shard/wire.hpp"
#include "runtime/topology.hpp"
#include "util/args.hpp"

namespace {

using namespace mpcspan;
using namespace mpcspan::runtime;
using namespace mpcspan::runtime::shard;

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// The coordinate-mode workload: every round each machine folds its inbox
/// into an accumulator and passes a mixed word to its ring successor.
/// Globally registered, like every kernel, so a worker (this same binary,
/// any process) constructs it from the name in its SETUP frame.
class TcpProbeKernel final : public StepKernel {
 public:
  static std::string kernelName() { return "tools.tcpprobe"; }

  std::vector<Message> step(const KernelCtx& ctx) override {
    std::uint64_t& acc = accFor(ctx);
    for (const Delivery& d : ctx.inbox)
      for (std::size_t i = 0; i < d.payload.size(); ++i)
        acc = mix64(acc ^ d.payload[i] ^ (static_cast<Word>(d.src) << 32));
    const Word round = ctx.args.empty() ? 0 : ctx.args[0];
    const Word out = mix64(acc ^ round ^ ctx.machine);
    std::vector<Message> msgs;
    msgs.push_back({(ctx.machine + 1) % ctx.numMachines, {out}});
    return msgs;
  }

  std::vector<Word> fetch(const KernelCtx& ctx) override {
    return {accFor(ctx)};
  }

 private:
  /// Machines step in parallel, so the one-time sizing must be fenced;
  /// afterwards each machine touches only its own slot.
  std::uint64_t& accFor(const KernelCtx& ctx) {
    std::call_once(sized_, [&] { acc_.assign(ctx.numMachines, 0); });
    return acc_[ctx.machine];
  }
  std::once_flag sized_;
  std::vector<std::uint64_t> acc_;
};

int runConnect(const std::string& endpoint, std::size_t shardId,
               int timeoutMs) {
  const auto [host, port] = parseEndpoint(endpoint);
  std::fprintf(stderr, "mpcspan_worker: attaching shard %zu to %s\n", shardId,
               endpoint.c_str());
  attachTcpWorker(host, port, shardId, /*epoch=*/0, timeoutMs);
  return 0;
}

int runCoordinate(std::size_t shards, std::uint16_t port,
                  std::size_t machines, std::size_t rounds,
                  std::size_t threads, int timeoutMs, bool local) {
  if (port == 0 && !local) {
    std::fprintf(stderr,
                 "error: --coordinate requires a fixed --port (remote "
                 "workers must know where to dial)\n");
    return 2;
  }
  // The engine reads the rendezvous knobs from the environment; pin them to
  // the flag values so the lazily-started backend sees exactly this setup.
  // --local runs the identical workload with fork()ed loopback workers
  // instead of awaited attaches, so CI can diff the two checksums.
  ::setenv("MPCSPAN_TCP_REMOTE", local ? "0" : "1", 1);
  ::setenv("MPCSPAN_TCP_PORT", std::to_string(port).c_str(), 1);
  if (timeoutMs > 0)
    ::setenv("MPCSPAN_TCP_TIMEOUT_MS", std::to_string(timeoutMs).c_str(), 1);

  EngineConfig cfg;
  cfg.numMachines = machines;
  cfg.threads = threads;
  cfg.shards = shards;
  RoundEngine eng(cfg, MpcTopology(/*wordsPerMachine=*/256));
  const KernelId probe = ensureKernel<TcpProbeKernel>(eng);

  if (local)
    std::fprintf(stderr, "mpcspan_worker: coordinating %zu local shard(s)\n",
                 shards);
  else
    std::fprintf(stderr,
                 "mpcspan_worker: coordinating %zu shard(s) on port %u — "
                 "waiting for `mpcspan_worker --connect` attaches\n",
                 shards, static_cast<unsigned>(port));
  for (std::size_t r = 0; r < rounds; ++r)
    eng.step(probe, {static_cast<Word>(r)});

  std::uint64_t checksum = 0;
  const std::vector<std::vector<Word>> fetched = eng.fetchKernel(probe);
  for (std::size_t m = 0; m < fetched.size(); ++m)
    for (const Word w : fetched[m]) checksum = mix64(checksum ^ w ^ m);
  std::fprintf(stdout, "rounds=%zu shards=%zu checksum=%016llx\n",
               eng.rounds(), eng.numShards(),
               static_cast<unsigned long long>(checksum));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args("mpcspan_worker",
                 "shard worker / tcp rendezvous coordinator (see "
                 "src/runtime/shard/tcp_transport.hpp)");
  args.flag("connect", "", "coordinator rendezvous endpoint host:port")
      .flag("shard", "0", "shard id to attach as (--connect mode)")
      .flag("coordinate", "0",
            "host a sharded run awaiting this many remote shards (0 = "
            "worker mode)")
      .flag("port", "0", "rendezvous port to listen on (--coordinate mode)")
      .flag("local", "false",
            "--coordinate with fork()ed loopback workers instead of remote "
            "attaches (checksum reference)")
      .flag("machines", "8", "simulated machines (--coordinate mode)")
      .flag("rounds", "6", "probe kernel rounds to drive (--coordinate mode)")
      .flag("threads", "0", "stepping-pool lanes (0 = MPCSPAN_THREADS)")
      .flag("timeout", "0",
            "per-transfer deadline in ms (0 = MPCSPAN_TCP_TIMEOUT_MS "
            "default)");

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
    int timeoutMs = static_cast<int>(args.getInt("timeout"));
    if (timeoutMs <= 0) timeoutMs = mpcspan::runtime::shard::defaultTcpTimeoutMs();

    const auto shards = static_cast<std::size_t>(args.getInt("coordinate"));
    if (shards > 0)
      return runCoordinate(shards,
                           parsePort(args.get("port"), /*dial=*/false),
                           static_cast<std::size_t>(args.getInt("machines")),
                           static_cast<std::size_t>(args.getInt("rounds")),
                           static_cast<std::size_t>(args.getInt("threads")),
                           timeoutMs, args.getBool("local"));
    if (args.get("connect").empty()) {
      std::fprintf(stderr, "error: one of --connect or --coordinate is required\n\n%s",
                   args.usage().c_str());
      return 2;
    }
    return runConnect(args.get("connect"),
                      static_cast<std::size_t>(args.getInt("shard")),
                      timeoutMs);
  } catch (const mpcspan::runtime::shard::ShardError& e) {
    std::fprintf(stderr, "ShardError: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
