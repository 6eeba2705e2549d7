// Query artifacts: build-once/serve-many round trips, and corruption
// resistance — truncated, bit-flipped or spliced artifacts must either load
// to an artifact that re-saves to exactly their bytes or fail with a clean
// std::runtime_error, never a partially valid object or a huge allocation.
#include <gtest/gtest.h>

#include <cstdint>
#include <new>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/distance.hpp"
#include "graph/generators.hpp"
#include "query/build.hpp"
#include "util/deadline.hpp"
#include "util/rng.hpp"
#include "alloc_cap.hpp"

namespace mpcspan {
namespace {

Graph testGraph(std::size_t n = 120, std::size_t m = 480) {
  Rng rng(8);
  return gnmRandom(n, m, rng, {WeightModel::kUniform, 20.0}, /*connected=*/true);
}

query::QueryArtifact buildSmall(const std::string& algo = "baswana-sen") {
  query::BuildPlan plan;
  plan.algo = algo;
  plan.k = 3;
  plan.sketchK = 2;
  plan.cacheSources = 16;
  return query::buildArtifact(testGraph(), plan);
}

std::string serialized(const query::QueryArtifact& a) {
  std::ostringstream out(std::ios::binary);
  query::saveArtifact(a, out);
  return out.str();
}

TEST(Artifact, RoundTripPreservesEveryQueryAnswer) {
  const auto a = buildSmall();
  std::istringstream in(serialized(a), std::ios::binary);
  const auto b = query::loadArtifact(in);

  EXPECT_EQ(b.graph.numVertices(), a.graph.numVertices());
  EXPECT_EQ(b.graph.numEdges(), a.graph.numEdges());
  EXPECT_EQ(b.graph.edges(), a.graph.edges());
  EXPECT_EQ(b.spannerEdges, a.spannerEdges);
  EXPECT_EQ(b.algorithm, a.algorithm);
  EXPECT_EQ(b.k, a.k);
  EXPECT_EQ(b.spannerStretch, a.spannerStretch);
  EXPECT_EQ(b.composedStretch, a.composedStretch);
  EXPECT_EQ(b.cacheSources, a.cacheSources);
  EXPECT_EQ(b.sketches.totalBunchEntries(), a.sketches.totalBunchEntries());

  // The loaded sketches answer bit-identically (no recomputation happened:
  // the tables were adopted as-is).
  for (VertexId u = 0; u < a.graph.numVertices(); u += 5)
    for (VertexId v = 0; v < a.graph.numVertices(); v += 3)
      EXPECT_EQ(b.sketches.query(u, v), a.sketches.query(u, v)) << u << "," << v;
}

TEST(Artifact, ReloadedPlaneServesWithoutRebuild) {
  const auto a = buildSmall();
  std::istringstream in(serialized(a), std::ios::binary);
  const auto b = query::loadArtifact(in);
  const auto planeA = query::makeQueryPlane(a);
  const auto planeB = query::makeQueryPlane(b);
  Rng rng(4);
  for (int i = 0; i < 200; ++i) {
    const auto u = static_cast<VertexId>(rng.next(a.graph.numVertices()));
    const auto v = static_cast<VertexId>(rng.next(a.graph.numVertices()));
    const util::DeadlineBudget atFloor(0);
    EXPECT_EQ(planeB.tiered->queryBudgeted(u, v, atFloor).dist,
              planeA.tiered->queryBudgeted(u, v, atFloor).dist);
  }
}

TEST(Artifact, DistributedBuildRoundTrips) {
  // An artifact produced by the sharded MPC pipeline reloads and serves
  // like a host-built one; the simulator's ledger rides along.
  query::BuildPlan plan;
  plan.algo = "dist-baswana-sen";
  plan.k = 3;
  plan.sketchK = 2;
  const auto a = query::buildArtifact(testGraph(), plan);
  EXPECT_GT(a.buildRounds, 0u);
  std::istringstream in(serialized(a), std::ios::binary);
  const auto b = query::loadArtifact(in);
  EXPECT_EQ(b.buildRounds, a.buildRounds);
  EXPECT_EQ(b.wordsMoved, a.wordsMoved);
  EXPECT_EQ(b.spannerEdges, a.spannerEdges);
  const auto plane = query::makeQueryPlane(b);
  const Weight est =
      plane.tiered->queryBudgeted(0, 7, util::DeadlineBudget(0)).dist;
  const Weight exact = dijkstraPair(b.graph, 0, 7);
  EXPECT_GE(est, exact - 1e-12);
  EXPECT_LE(est, b.composedStretch * exact + 1e-9);
}

TEST(Artifact, FileRoundTrip) {
  const auto a = buildSmall();
  const std::string path = testing::TempDir() + "artifact_roundtrip.mpqa";
  query::saveArtifactFile(a, path);
  const auto b = query::loadArtifactFile(path);
  EXPECT_EQ(b.spannerEdges, a.spannerEdges);
  std::remove(path.c_str());
}

TEST(Artifact, BadMagicAndVersionAreRejected) {
  const auto a = buildSmall();
  std::string bytes = serialized(a);
  {
    std::string bad = bytes;
    bad[0] = 'X';
    std::istringstream in(bad, std::ios::binary);
    EXPECT_THROW(query::loadArtifact(in), std::runtime_error);
  }
  {
    std::string bad = bytes;
    bad[4] = 99;  // version field
    std::istringstream in(bad, std::ios::binary);
    EXPECT_THROW(query::loadArtifact(in), std::runtime_error);
  }
}

TEST(Artifact, EveryTruncationFailsCleanly) {
  const auto a = buildSmall();
  const std::string bytes = serialized(a);
  ASSERT_GT(bytes.size(), 64u);
  // Truncate at a spread of prefixes crossing every section boundary.
  for (std::size_t frac = 0; frac <= 20; ++frac) {
    const std::size_t len = bytes.size() * frac / 21;
    std::istringstream in(bytes.substr(0, len), std::ios::binary);
    EXPECT_THROW(query::loadArtifact(in), std::runtime_error) << "len=" << len;
  }
  // One byte short.
  std::istringstream in(bytes.substr(0, bytes.size() - 1), std::ios::binary);
  EXPECT_THROW(query::loadArtifact(in), std::runtime_error);
}

TEST(Artifact, TrailingGarbageIsRejected) {
  const auto a = buildSmall();
  std::istringstream in(serialized(a) + "x", std::ios::binary);
  EXPECT_THROW(query::loadArtifact(in), std::runtime_error);
}

TEST(Artifact, CorruptSketchTablesAreRejected) {
  const auto a = buildSmall();
  const std::string bytes = serialized(a);
  // Flip bytes across the payload; every mutation must either load to a
  // fully valid artifact (the flip hit a don't-care bit such as a weight
  // mantissa) or throw std::runtime_error — never crash, never hand back
  // partial state.
  std::size_t rejected = 0;
  for (std::size_t pos = 8; pos < bytes.size(); pos += bytes.size() / 97 + 1) {
    std::string bad = bytes;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x5a);
    std::istringstream in(bad, std::ios::binary);
    try {
      const auto b = query::loadArtifact(in);
      // Loaded: the artifact must be internally consistent enough to serve.
      (void)b.sketches.query(0, 1);
    } catch (const std::runtime_error&) {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0u);  // at least some flips hit validated fields
}

/// What loading `bytes` did: re-saved to the same bytes, rejected with
/// std::runtime_error, or something that must never happen.
enum class Outcome { kIdentical, kRejected, kResavedDifferently, kOversized, kOther };

/// Loads `bytes` with every single allocation capped at a 64Ki-element
/// chunk's head start plus a few times the input (a decoder sizes nothing
/// by a length field the bytes do not back), then re-saves what loaded.
Outcome loadAndResave(const std::string& bytes, std::string* why) {
  std::istringstream in(bytes, std::ios::binary);
  std::optional<query::QueryArtifact> loaded;
  try {
    const test_alloc::AllocCap cap(4 * bytes.size() + (1u << 20));
    loaded.emplace(query::loadArtifact(in));
  } catch (const std::runtime_error&) {
    return Outcome::kRejected;
  } catch (const std::bad_alloc&) {
    return Outcome::kOversized;
  } catch (const std::exception& e) {
    *why = e.what();
    return Outcome::kOther;
  }
  return serialized(*loaded) == bytes ? Outcome::kIdentical
                                      : Outcome::kResavedDifferently;
}

/// Tallies mutant outcomes; anything but identical/rejected is a failure.
struct MutantTally {
  std::size_t identical = 0, rejected = 0;

  void add(const std::string& mutant, const std::string& label) {
    std::string why;
    switch (loadAndResave(mutant, &why)) {
      case Outcome::kIdentical: ++identical; break;
      case Outcome::kRejected: ++rejected; break;
      case Outcome::kResavedDifferently:
        ADD_FAILURE() << label << ": loaded but does not re-save to its bytes";
        break;
      case Outcome::kOversized:
        ADD_FAILURE() << label << ": oversized allocation while loading";
        break;
      case Outcome::kOther:
        ADD_FAILURE() << label << ": not a std::runtime_error: " << why;
        break;
    }
  }
};

TEST(ArtifactMutation, SeededBitFlipsReloadIdenticallyOrAreRejected) {
  const std::string bytes = serialized(buildSmall());
  Rng rng(2024);
  MutantTally tally;
  for (int i = 0; i < 3000; ++i) {
    std::string mutant = bytes;
    const std::uint64_t flips = 1 + rng.next(4);
    for (std::uint64_t f = 0; f < flips; ++f) {
      const std::uint64_t bit = rng.next(8 * bytes.size());
      mutant[bit / 8] = static_cast<char>(mutant[bit / 8] ^ (1 << (bit % 8)));
    }
    tally.add(mutant, "bit-flip mutant " + std::to_string(i));
  }
  EXPECT_GT(tally.identical, 0u);  // e.g. a flip in a weight mantissa
  EXPECT_GT(tally.rejected, 0u);
}

TEST(ArtifactMutation, SplicesReloadIdenticallyOrAreRejected) {
  // The head of one saved artifact joined to the tail of another: at the
  // same offset in both (sections line up until their lengths differ), at
  // independent offsets, and within one artifact (a region dropped or
  // repeated). The second artifact shares the graph but not the spanner or
  // the sketches.
  const std::string a = serialized(buildSmall("baswana-sen"));
  const std::string b = serialized(buildSmall("tradeoff"));
  Rng rng(77);
  MutantTally tally;
  const std::pair<const std::string*, const std::string*> orders[] = {
      {&a, &b}, {&b, &a}, {&a, &a}};
  for (const auto& [head, tail] : orders)
    for (int i = 0; i < 600; ++i) {
      const std::size_t cut = rng.next(head->size() + 1);
      const std::size_t resume =
          i % 2 == 0 ? std::min(cut, tail->size()) : rng.next(tail->size() + 1);
      tally.add(head->substr(0, cut) + tail->substr(resume),
                "splice at " + std::to_string(cut) + "/" + std::to_string(resume));
    }
  EXPECT_GT(tally.identical, 0u);
  EXPECT_GT(tally.rejected, 0u);
}

TEST(ArtifactMutation, FlippedGraphCountsAreRejectedBeforeSizing) {
  // The graph section's n and m sit at bytes 16 and 24 (after the MPQA and
  // MPGB magic/version words). A high bit in either is a length no byte of
  // the artifact backs: rejected, with nothing sized by it.
  const std::string bytes = serialized(buildSmall());
  for (const std::size_t offset : {16u, 24u})
    for (unsigned bit = 12; bit < 64; ++bit) {
      std::string mutant = bytes;
      mutant[offset + bit / 8] =
          static_cast<char>(mutant[offset + bit / 8] ^ (1 << (bit % 8)));
      std::string why;
      EXPECT_EQ(loadAndResave(mutant, &why), Outcome::kRejected)
          << "field at " << offset << ", bit " << bit << " " << why;
    }
}

std::uint64_t hashWords(const std::vector<EdgeId>& ids) {
  std::uint64_t h = 0x243f6a8885a308d3ull;
  for (const EdgeId id : ids) h = mix64(h ^ id);
  return h;
}

std::uint64_t hashBytes(const std::string& bytes) {
  std::uint64_t h = 0x243f6a8885a308d3ull;
  for (const char c : bytes) h = mix64(h ^ static_cast<unsigned char>(c));
  return h;
}

// Frozen artifacts: the host and distributed builds of one small graph. A
// change to the build path must leave every value as it is; regenerate a row
// only for an intended algorithm change, and say why in the commit. The two
// dist rows' rounds and words (and dist-tradeoff's file hash, which stores
// them) were regenerated when the growth find-minimum's second superstep
// lost its redundant sort: its input is already in vertex order. Their edge
// hashes and stretches did not change.
struct ArtifactPin {
  const char* algo;
  std::uint64_t edgeHash;
  double spannerStretch;
  double composedStretch;
  std::size_t buildRounds;
  std::size_t wordsMoved;
  std::uint64_t fileHash;  // 0: not pinned
};

TEST(Artifact, PinnedBuildsAreUnchanged) {
  const ArtifactPin pins[] = {
      {"tradeoff", 0x6b6fd8bcd24a3bbcull, 78, 234, 0, 0, 0x31bd35044401c4b9ull},
      {"baswana-sen", 0x18360854fd4248d7ull, 7, 21, 0, 0, 0},
      {"dist-tradeoff", 0x6b6fd8bcd24a3bbcull, 7.620824233395731,
       22.862472700187194, 36, 8710, 0x20d12bd0cc42cf11ull},
      {"dist-baswana-sen", 0x18360854fd4248d7ull, 7, 21, 25, 8144, 0},
  };
  const Graph g = testGraph();
  for (const ArtifactPin& pin : pins) {
    query::BuildPlan plan;
    plan.algo = pin.algo;
    plan.k = 4;
    plan.seed = 5;
    plan.sketchK = 2;
    plan.cacheSources = 16;
    const auto a = query::buildArtifact(g, plan);
    EXPECT_EQ(hashWords(a.spannerEdges), pin.edgeHash) << pin.algo;
    EXPECT_EQ(a.spannerStretch, pin.spannerStretch) << pin.algo;
    EXPECT_EQ(a.composedStretch, pin.composedStretch) << pin.algo;
    EXPECT_EQ(a.buildRounds, pin.buildRounds) << pin.algo;
    EXPECT_EQ(a.wordsMoved, pin.wordsMoved) << pin.algo;
    if (pin.fileHash != 0) {
      EXPECT_EQ(hashBytes(serialized(a)), pin.fileHash) << pin.algo;
    }
  }
}

TEST(Artifact, UnknownAlgoIsRejectedAtBuildTime) {
  query::BuildPlan plan;
  plan.algo = "nope";
  EXPECT_THROW(query::buildArtifact(testGraph(), plan), std::invalid_argument);
}

}  // namespace
}  // namespace mpcspan
