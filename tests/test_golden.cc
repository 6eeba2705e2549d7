// The golden table: frozen ledgers and checksums of the runtime's reference
// workloads, one row per (algorithm or wave, graph, k, seed). Every
// surviving backend configuration — in-process at 1 and N threads, and the
// shm ring and tcp mesh at 2 and 4 shards x 1 and 2 threads — must
// reproduce every row exactly: rounds, words sent, max round words, the
// spanner-edge (or wave-output) hash, and the final inbox / kernel-state
// checksum.
//
// The table was generated while the deleted backends (fork-per-round
// workers, the coordinator relay, the socket mesh, and the strict barrier)
// still existed, and every one of them produced it too; it is what those
// bit-identical reference paths used to guarantee. Regenerate it only for
// an intended algorithm change, and say why in the commit.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "cclique/clique.hpp"
#include "cclique/iteration_cc.hpp"
#include "graph/generators.hpp"
#include "mpc/dist_iteration.hpp"
#include "mpc/dist_spanner.hpp"
#include "mpc/simulator.hpp"
#include "pram/pram.hpp"
#include "runtime/round_engine.hpp"
#include "spanner/engine.hpp"
#include "probe_kernels.hpp"

namespace mpcspan {
namespace {

using runtime::Delivery;
using runtime::EngineConfig;
using runtime::KernelId;
using runtime::PramTopology;
using runtime::RoundEngine;
using runtime::Transport;

// --- Backend configurations. ---

struct Backend {
  std::string name;
  std::size_t threads = 1;
  std::size_t shards = 1;
  Transport transport = Transport::kShmRing;
};

std::vector<Backend> survivingBackends() {
  std::vector<Backend> out{{"inproc/1t", 1, 1}, {"inproc/4t", 4, 1}};
  for (const Transport transport : {Transport::kShmRing, Transport::kTcp})
    for (const std::size_t shards : {2u, 4u})
      for (const std::size_t threads : {1u, 2u})
        out.push_back({std::string(transport == Transport::kTcp ? "tcp" : "shm") +
                           "/" + std::to_string(shards) + "s/" +
                           std::to_string(threads) + "t",
                       threads, shards, transport});
  return out;
}

EngineConfig engineConfig(std::size_t numMachines, const Backend& b) {
  EngineConfig cfg;
  cfg.numMachines = numMachines;
  cfg.threads = b.threads;
  cfg.shards = b.shards;
  cfg.transport = b.transport;
  return cfg;
}

std::unique_ptr<MpcSimulator> makeSim(MpcConfig cfg, const Backend& b) {
  return std::make_unique<MpcSimulator>(cfg, b.threads, b.shards, b.transport);
}

std::unique_ptr<CongestedClique> makeClique(std::size_t n, const Backend& b) {
  return std::make_unique<CongestedClique>(n, b.threads, b.shards, b.transport);
}

// --- Checksums. ---

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

struct Hasher {
  std::uint64_t h = 0x243f6a8885a308d3ull;
  void add(std::uint64_t w) { h = mix64(h ^ w); }
};

/// Every delivery of every resident inbox. With `payloads` false only the
/// shape (senders and payload lengths) is hashed: the growth wave's inboxes
/// hold packed structs (runtime/pack.hpp) whose padding bytes are not part
/// of any value and differ from run to run.
std::uint64_t inboxHash(const std::vector<std::vector<Delivery>>& inboxes,
                        bool payloads = true) {
  Hasher hs;
  for (std::size_t m = 0; m < inboxes.size(); ++m) {
    hs.add(inboxes[m].size());
    for (const Delivery& d : inboxes[m]) {
      hs.add(d.src);
      hs.add(d.payload.size());
      if (payloads)
        for (const Word w : d.payload) hs.add(w);
    }
  }
  return hs.h;
}

std::uint64_t rowsHash(const std::vector<std::vector<Word>>& rows) {
  Hasher hs;
  for (const std::vector<Word>& row : rows) {
    hs.add(row.size());
    for (const Word w : row) hs.add(w);
  }
  return hs.h;
}

/// One golden value: the ledger plus two checksums.
struct Golden {
  std::size_t rounds = 0;
  std::size_t words = 0;
  std::size_t maxRound = 0;
  std::uint64_t edgeHash = 0;   // spanner edges / wave output
  std::uint64_t stateHash = 0;  // final resident inboxes (+ kernel state)

  friend bool operator==(const Golden&, const Golden&) = default;
};

Golden ledgerOf(RoundEngine& eng) {
  Golden g;
  g.rounds = eng.rounds();
  g.words = eng.totalWordsSent();
  g.maxRound = eng.maxRoundWords();
  return g;
}

/// Every decision of one growth iteration, weights included.
void hashIteration(Hasher& hs, const DistIterationResult& res) {
  for (const GroupMinEdge& gm : res.groupMins) {
    hs.add(gm.v);
    hs.add(gm.cluster);
    hs.add(std::bit_cast<std::uint64_t>(gm.w));
    hs.add(gm.id);
  }
  for (const ClosestSampled& cs : res.joins) {
    hs.add(cs.v);
    hs.add(cs.cluster);
    hs.add(std::bit_cast<std::uint64_t>(cs.w));
    hs.add(cs.id);
  }
  hs.add(res.roundsUsed);
}

std::vector<VertexId> identity(std::size_t n) {
  std::vector<VertexId> v(n);
  std::iota(v.begin(), v.end(), 0);
  return v;
}

// --- Rows: the two distributed spanner builds. ---

constexpr std::size_t kDistN = 400;
constexpr std::size_t kDistM = 20000;
constexpr std::uint64_t kDistGraphSeed = 2021;
constexpr std::uint32_t kDistK = 4;
constexpr std::uint64_t kDistSeed = 7;

Graph distGraph() {
  Rng rng(kDistGraphSeed);
  return gnmRandom(kDistN, kDistM, rng, {WeightModel::kUniform, 50.0}, true);
}

/// `keptFrac` receives the spanner's share of the graph's edges.
Golden runDist(bool tradeoff, const Backend& b, double* keptFrac = nullptr) {
  const Graph g = distGraph();
  auto sim = makeSim(MpcConfig::forInput(8 * g.numEdges(), 0.6, 3.0), b);
  const DistSpannerResult r =
      tradeoff ? buildDistributedTradeoff(*sim, g, kDistK, 0, kDistSeed)
               : buildDistributedBaswanaSen(*sim, g, kDistK, kDistSeed);
  if (keptFrac)
    *keptFrac = static_cast<double>(r.edges.size()) /
                static_cast<double>(g.numEdges());
  Golden out = ledgerOf(sim->engine());
  Hasher hs;
  for (const EdgeId e : r.edges) hs.add(e);
  out.edgeHash = hs.h;
  out.stateHash = inboxHash(sim->engine().snapshotInboxes());
  return out;
}

// --- Rows: the three compute waves (test_wave_kernels workloads). ---

Golden runGrowthWave(const Backend& b) {
  Rng rng(99);
  const Graph g = gnmRandom(300, 1500, rng, {WeightModel::kUniform, 15.0}, true);
  const std::size_t n = g.numVertices();
  const std::vector<VertexId> superOf = identity(n);
  std::vector<VertexId> clusterOf = identity(n);
  std::vector<char> alive(g.numEdges(), 1);
  auto sim = makeSim(MpcConfig::forInput(4 * g.numEdges(), 0.6, 3.0), b);
  Hasher hs;
  for (int iter = 0; iter < 3; ++iter) {
    const std::vector<char> sampled = HashCoinPolicy::draw(
        std::vector<char>(n, 1), 0.3, /*seed=*/99, /*drawKey=*/iter + 1);
    const DistIterationResult res =
        distIterationKernel(*sim, g, superOf, clusterOf, sampled, &alive);
    hashIteration(hs, res);
    for (const ClosestSampled& cs : res.joins) clusterOf[cs.v] = cs.cluster;
    for (const GroupMinEdge& gm : res.groupMins)
      if ((gm.id & 3u) == 0) alive[gm.id] = 0;
  }
  Golden out = ledgerOf(sim->engine());
  out.edgeHash = hs.h;
  out.stateHash =
      inboxHash(sim->engine().snapshotInboxes(), /*payloads=*/false);
  return out;
}

Golden runCliqueWave(const Backend& b) {
  Rng rng(7);
  const Graph g = gnmRandom(60, 260, rng, {WeightModel::kUniform, 9.0}, true);
  const std::size_t n = g.numVertices();
  std::vector<char> alive(g.numEdges(), 1);
  for (EdgeId id = 0; id < g.numEdges(); id += 5) alive[id] = 0;
  auto cc = makeClique(n, b);
  Hasher hs;
  for (int iter = 0; iter < 3; ++iter) {
    const std::vector<char> sampled = HashCoinPolicy::draw(
        std::vector<char>(n, 1), 0.4, /*seed=*/7, /*drawKey=*/iter + 1);
    const DistIterationResult res = cliqueIterationKernel(
        *cc, g, identity(n), identity(n), sampled, &alive);
    hashIteration(hs, res);
  }
  Golden out = ledgerOf(cc->engine());
  out.edgeHash = hs.h;
  out.stateHash = inboxHash(cc->engine().snapshotInboxes());
  return out;
}

Golden runForestWave(const Backend& b) {
  const std::size_t n = 32;
  RoundEngine eng(engineConfig(n, b), std::make_unique<PramTopology>());
  LeaderForest lf(n);
  lf.attachEngine(&eng);
  std::uint64_t h = 11;
  for (int i = 0; i < 60; ++i) {
    h = h * 6364136223846793005ULL + 1442695040888963407ULL;
    const auto a = static_cast<std::uint32_t>((h >> 33) % n);
    h = h * 6364136223846793005ULL + 1442695040888963407ULL;
    const auto c = static_cast<std::uint32_t>((h >> 33) % n);
    lf.merge(a, c);
  }
  Golden out = ledgerOf(eng);
  Hasher hs;
  for (std::uint32_t v = 0; v < n; ++v) hs.add(lf.leader(v));
  out.edgeHash = hs.h;
  out.stateHash = rowsHash(eng.fetchKernel(lf.kernelId())) ^
                  inboxHash(eng.snapshotInboxes());
  return out;
}

// --- Rows: the transport probe kernel on all three topologies. ---

Golden runProbe(int mode, const Backend& b) {
  RoundEngine eng(engineConfig(12, b), test_kernels::probeTopology(mode));
  const KernelId k = eng.registerKernel(
      test_kernels::ProbeKernel::kernelName(),
      [] { return std::make_unique<test_kernels::ProbeKernel>(); });
  for (int i = 0; i < 5; ++i) eng.step(k, {static_cast<Word>(mode)});
  eng.stepShuffle(k, {static_cast<Word>(mode)});
  Golden out = ledgerOf(eng);
  out.edgeHash = rowsHash(eng.fetchKernel(k));
  out.stateHash = inboxHash(eng.snapshotInboxes());
  return out;
}

// --- The table. ---

struct Row {
  const char* key;
  Golden (*run)(const Backend&);
  Golden expected;
};

const std::vector<Row>& goldenTable() {
  static const std::vector<Row> rows{
      {"dist-tradeoff/gnm(400,20000,seed=2021)/k=4/seed=7",
       [](const Backend& b) { return runDist(true, b); },
       {48, 411483, 93474, 0x383eeb85dd64e52eull, 0x08150b23fe6f0195ull}},
      {"dist-baswana-sen/gnm(400,20000,seed=2021)/k=4/seed=7",
       [](const Backend& b) { return runDist(false, b); },
       {44, 528842, 93474, 0x3fc493272fefb72dull, 0x08150b23fe6f0195ull}},
      {"growth-wave/gnm(300,1500,seed=99)/iters=3/seed=99", runGrowthWave,
       {30, 30074, 7509, 0x4e03fc9433cfc14dull, 0xd196e1e45159fea1ull}},
      {"clique-label-wave/gnm(60,260,seed=7)/iters=3/seed=7", runCliqueWave,
       {9, 4524, 512, 0x1afdc7ff8445de64ull, 0xb21d8584e5f25b47ull}},
      {"leader-forest/n=32/merges=60/seed=11", runForestWave,
       {30, 39, 6, 0x95533c7b93810422ull, 0xf08847f1ad8c1287ull}},
      {"probe/mpc/n=12/cap=64/rounds=5+shuffle",
       [](const Backend& b) { return runProbe(0, b); },
       {5, 300, 60, 0xb615add98adf7d34ull, 0xdd88c302fe79df92ull}},
      {"probe/clique/n=12/rounds=5+shuffle",
       [](const Backend& b) { return runProbe(1, b); },
       {5, 60, 12, 0xadcd9d136916390aull, 0xe53008d5fa8a702cull}},
      {"probe/pram/n=12/rounds=5+shuffle",
       [](const Backend& b) { return runProbe(2, b); },
       {5, 60, 12, 0xbe7ff803818678f5ull, 0x29f9bdac97ab2c9eull}},
  };
  return rows;
}

TEST(GoldenTable, DistSpannersAreCompressive) {
  // An edge hash over a near-identity spanner would check nothing.
  const Backend inproc{"inproc/1t", 1, 1};
  for (const bool tradeoff : {true, false}) {
    double kept = 1.0;
    (void)runDist(tradeoff, inproc, &kept);
    EXPECT_LT(kept, 0.3) << (tradeoff ? "dist-tradeoff" : "dist-baswana-sen");
  }
}

TEST(GoldenTable, EverySurvivingBackendReproducesTheTable) {
  for (const Backend& b : survivingBackends())
    for (const Row& row : goldenTable()) {
      const Golden got = row.run(b);
      EXPECT_EQ(got, row.expected)
          << row.key << " on " << b.name << ": got {" << got.rounds << ", "
          << got.words << ", " << got.maxRound << ", 0x" << std::hex
          << got.edgeHash << ", 0x" << got.stateHash << "}";
    }
}

}  // namespace
}  // namespace mpcspan
