// The golden table: frozen ledgers and checksums of the runtime's reference
// workloads, one row per (algorithm or wave, graph, k, seed). Every
// surviving backend configuration — in-process at 1 and N threads, and the
// tcp mesh at 2 and 4 shards x 1 and 2 threads — must reproduce every row
// exactly: rounds, words sent, max round words, the spanner-edge (or
// wave-output) hash, and the final inbox / kernel-state checksum.
//
// The table was generated while the deleted backends (fork-per-round
// workers, the coordinator relay, the socket mesh, the strict barrier, and
// the shared-memory ring) still existed, and every one of them produced it
// too; it is what those
// bit-identical reference paths used to guarantee. The broadcast rows were
// generated the same way, in-process and at 4 shards, while
// treeBroadcastWords still ran on coordinator-built rounds. The probe row
// was regenerated when the engine's free shuffle round was deleted: the
// probe ended with one, and every surviving backend agreed on the new
// hashes (rounds and words did not change). Four rows left the table with
// the engine's Congested Clique and PRAM models — clique-label-wave,
// leader-forest, probe/clique and probe/pram — because the engine now
// simulates only MPC and those costs are formulas; no surviving row
// changed. The two dist rows and the growth-wave row were regenerated when
// the growth find-minimum's second superstep lost its sort: its input, the
// first superstep's (v, cluster)-sorted group minima, is already in v
// order. Only rounds and words fell (dist-tradeoff 48 -> 40 rounds,
// dist-baswana-sen 44 -> 32, growth-wave 30 -> 21), plus the growth wave's
// edgeHash, which hashes roundsUsed, and its stateHash, the shape of the
// last rounds' inboxes. The spanner edge hashes, maxRound and the dist
// rows' stateHash did not change, the wave's group minima and joins hash
// the same as before, and all six backends agreed on the new values.
// Regenerate a row only for an intended algorithm change, and say why in
// the commit.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "mpc/dist_iteration.hpp"
#include "mpc/dist_spanner.hpp"
#include "mpc/primitives.hpp"
#include "mpc/simulator.hpp"
#include "runtime/round_engine.hpp"
#include "spanner/engine.hpp"
#include "probe_kernels.hpp"

namespace mpcspan {
namespace {

using runtime::Delivery;
using runtime::EngineConfig;
using runtime::KernelId;
using runtime::RoundEngine;

// --- Backend configurations. ---

struct Backend {
  std::string name;
  std::size_t threads = 1;
  std::size_t shards = 1;
};

std::vector<Backend> survivingBackends() {
  std::vector<Backend> out{{"inproc/1t", 1, 1}, {"inproc/4t", 4, 1}};
  for (const std::size_t shards : {2u, 4u})
    for (const std::size_t threads : {1u, 2u})
      out.push_back({"tcp/" + std::to_string(shards) + "s/" +
                         std::to_string(threads) + "t",
                     threads, shards});
  return out;
}

EngineConfig engineConfig(std::size_t numMachines, const Backend& b) {
  return EngineConfig{numMachines, b.threads, b.shards};
}

std::unique_ptr<MpcSimulator> makeSim(MpcConfig cfg, const Backend& b) {
  return std::make_unique<MpcSimulator>(cfg, b.threads, b.shards);
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

// --- Row: the growth compute wave (the test_wave_kernels workload). ---

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

// --- Row: the transport probe kernel. ---

Golden runProbe(const Backend& b) {
  RoundEngine eng(engineConfig(12, b), test_kernels::probeTopology());
  const KernelId k = runtime::ensureKernel<test_kernels::ProbeKernel>(eng);
  for (int i = 0; i < 5; ++i) eng.step(k);
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
       {40, 329195, 93474, 0x383eeb85dd64e52eull, 0x08150b23fe6f0195ull}},
      {"dist-baswana-sen/gnm(400,20000,seed=2021)/k=4/seed=7",
       [](const Backend& b) { return runDist(false, b); },
       {32, 418862, 93474, 0x3fc493272fefb72dull, 0x08150b23fe6f0195ull}},
      {"growth-wave/gnm(300,1500,seed=99)/iters=3/seed=99", runGrowthWave,
       {21, 21171, 7509, 0x8dc378895d6fc8e2ull, 0xea1a4c1cebc9558dull}},
      {"probe/mpc/n=12/cap=64/rounds=5", runProbe,
       {5, 300, 60, 0xbd882e657eac2736ull, 0x3fc3129764189645ull}},
  };
  return rows;
}

// --- The broadcast rows: treeBroadcastWords on every bench_t8_primitives
// config (slack 3, payload {1,2,3,4}) and on the two TreeBroadcast unit
// configs. Value: (rounds, words sent, max round words). ---

struct BroadcastRow {
  std::string key;
  MpcConfig cfg;
  std::vector<Word> payload;
  std::size_t rounds, words, maxRound;
};

const std::vector<BroadcastRow>& broadcastTable() {
  static const std::vector<BroadcastRow> rows = [] {
    const std::vector<Word> four{1, 2, 3, 4};
    auto t8 = [&](std::size_t n, double gamma, std::size_t words) {
      return BroadcastRow{"broadcast/t8/N=" + std::to_string(n) +
                              "/gamma=" + std::to_string(gamma).substr(0, 4),
                          MpcConfig::forInput(n, gamma, 3.0), four, 1, words,
                          words};
    };
    return std::vector<BroadcastRow>{
        t8(4096, 0.55, 52),  t8(4096, 0.7, 52),   t8(4096, 0.85, 40),
        t8(16384, 0.55, 108), t8(16384, 0.7, 108), t8(16384, 0.85, 48),
        t8(65536, 0.55, 216), t8(65536, 0.7, 216), t8(65536, 0.85, 60),
        {"broadcast/machines=16/S=64/payload=3", MpcConfig{16, 64}, {1, 2, 3},
         1, 45, 45},
        {"broadcast/machines=27/S=8/payload=4", MpcConfig{27, 8}, four, 3, 104,
         72},
    };
  }();
  return rows;
}

TEST(GoldenTable, EverySurvivingBackendReproducesTheBroadcastRows) {
  for (const Backend& b : survivingBackends())
    for (const BroadcastRow& row : broadcastTable()) {
      auto sim = makeSim(row.cfg, b);
      RoundEngine& eng = sim->engine();
      EXPECT_EQ(treeBroadcastWords(*sim, row.payload), row.rounds)
          << row.key << " on " << b.name;
      EXPECT_EQ(eng.rounds(), row.rounds) << row.key << " on " << b.name;
      EXPECT_EQ(eng.totalWordsSent(), row.words) << row.key << " on " << b.name;
      EXPECT_EQ(eng.maxRoundWords(), row.maxRound)
          << row.key << " on " << b.name;
      const auto held =
          eng.fetchKernel(runtime::ensureKernel<BroadcastKernel>(eng));
      EXPECT_EQ(held, std::vector<std::vector<Word>>(row.cfg.numMachines,
                                                     row.payload))
          << row.key << " on " << b.name;
    }
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
