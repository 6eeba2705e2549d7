#include "graph/io.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <new>
#include <sstream>

#include "alloc_cap.hpp"
#include "graph/generators.hpp"

namespace mpcspan {
namespace {

TEST(Io, RoundTripPreservesGraph) {
  Rng rng(1);
  const Graph g = gnmRandom(64, 180, rng, {WeightModel::kUniform, 20.0});
  std::stringstream ss;
  writeEdgeList(g, ss);
  const Graph back = readEdgeList(ss);
  ASSERT_EQ(back.numVertices(), g.numVertices());
  ASSERT_EQ(back.numEdges(), g.numEdges());
  for (EdgeId i = 0; i < g.numEdges(); ++i) {
    EXPECT_EQ(back.edge(i).u, g.edge(i).u);
    EXPECT_EQ(back.edge(i).v, g.edge(i).v);
    EXPECT_NEAR(back.edge(i).w, g.edge(i).w, 1e-6 * g.edge(i).w);
  }
}

TEST(Io, DefaultWeightIsOne) {
  std::stringstream ss("n 3\n0 1\n1 2\n");
  const Graph g = readEdgeList(ss);
  EXPECT_EQ(g.numEdges(), 2u);
  EXPECT_TRUE(g.isUnweighted());
}

TEST(Io, SkipsComments) {
  std::stringstream ss("# header\nn 2\n# edge below\n0 1 3.5\n");
  const Graph g = readEdgeList(ss);
  ASSERT_EQ(g.numEdges(), 1u);
  EXPECT_DOUBLE_EQ(g.edge(0).w, 3.5);
}

TEST(Io, RejectsMissingHeader) {
  std::stringstream ss("0 1 1.0\n");
  EXPECT_THROW(readEdgeList(ss), std::runtime_error);
  std::stringstream empty;
  EXPECT_THROW(readEdgeList(empty), std::runtime_error);
}

TEST(Io, FileRoundTrip) {
  Rng rng(2);
  const Graph g = cycleGraph(12, rng, {WeightModel::kInteger, 5.0});
  const std::string path = ::testing::TempDir() + "/mpcspan_io_test.txt";
  writeEdgeListFile(g, path);
  const Graph back = readEdgeListFile(path);
  EXPECT_EQ(back.numEdges(), g.numEdges());
  EXPECT_THROW(readEdgeListFile(path + ".missing"), std::runtime_error);
}

// --- SNAP / DIMACS loader. ---

Graph fromSnap(const std::string& text) {
  std::istringstream in(text);
  return readSnapDimacs(in);
}

TEST(SnapDimacs, ReadsSnapEdgeList) {
  const Graph g = fromSnap("# comment\n% comment\n0 1\n1 2 2.5\n3 1\n");
  EXPECT_EQ(g.numVertices(), 4u);  // inferred max id + 1
  EXPECT_EQ(g.numEdges(), 3u);
  EXPECT_DOUBLE_EQ(g.edge(1).w, 2.5);  // canonical order: (0,1), (1,2), (1,3)
  EXPECT_EQ(g.edge(2).u, 1u);
  EXPECT_EQ(g.edge(2).v, 3u);
}

TEST(SnapDimacs, CanonicalizesDuplicatesAndSelfLoops) {
  // Both orientations + a repeat collapse to one edge at minimum weight;
  // the self-loop is dropped.
  const Graph g = fromSnap("0 1 5\n1 0 3\n0 1 9\n2 2 4\n1 2 1\n");
  EXPECT_EQ(g.numEdges(), 2u);
  EXPECT_DOUBLE_EQ(g.edge(0).w, 3.0);
}

TEST(SnapDimacs, ReadsDimacsFormat) {
  const Graph g = fromSnap(
      "c a DIMACS shortest-path file\n"
      "p sp 4 4\n"
      "a 1 2 7\n"
      "a 2 1 7\n"
      "a 2 3 2\n"
      "a 4 3 1\n");
  EXPECT_EQ(g.numVertices(), 4u);  // from the header, 1-indexed -> 0-indexed
  EXPECT_EQ(g.numEdges(), 3u);     // forward/backward arcs collapse
  EXPECT_DOUBLE_EQ(g.edge(0).w, 7.0);
  EXPECT_EQ(g.edge(2).u, 2u);
  EXPECT_EQ(g.edge(2).v, 3u);
}

TEST(SnapDimacs, EmptyInputYieldsEmptyGraph) {
  const Graph g = fromSnap("# nothing but comments\n\n");
  EXPECT_EQ(g.numVertices(), 0u);
  EXPECT_EQ(g.numEdges(), 0u);
}

TEST(SnapDimacs, RejectsMalformedInput) {
  // Non-numeric vertex id.
  EXPECT_THROW(fromSnap("0 x\n"), std::runtime_error);
  // Missing endpoint.
  EXPECT_THROW(fromSnap("7\n"), std::runtime_error);
  // Trailing tokens.
  EXPECT_THROW(fromSnap("0 1 2.0 junk\n"), std::runtime_error);
  // Negative / non-finite / zero weights.
  EXPECT_THROW(fromSnap("0 1 -2\n"), std::runtime_error);
  EXPECT_THROW(fromSnap("0 1 0\n"), std::runtime_error);
  EXPECT_THROW(fromSnap("0 1 inf\n"), std::runtime_error);
  // DIMACS: arc before header, id out of the header range, arc-count
  // mismatch, malformed header.
  EXPECT_THROW(fromSnap("a 1 2 3\n"), std::runtime_error);
  EXPECT_THROW(fromSnap("p sp 2 1\na 1 3 1\n"), std::runtime_error);
  EXPECT_THROW(fromSnap("p sp 2 1\na 0 1 1\n"), std::runtime_error);  // 1-indexed
  EXPECT_THROW(fromSnap("p sp 2 2\na 1 2 1\n"), std::runtime_error);
  EXPECT_THROW(fromSnap("p sp\n"), std::runtime_error);
  EXPECT_THROW(fromSnap("p tw 2 1\na 1 2 1\n"), std::runtime_error);
  // Plain edge rows are not allowed once the DIMACS header was seen.
  EXPECT_THROW(fromSnap("p sp 2 1\n0 1 1\n"), std::runtime_error);
}

TEST(SnapDimacs, ErrorsNameTheLine) {
  try {
    fromSnap("0 1\n1 2\nbogus line\n");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos) << e.what();
  }
}

// --- Binary graph round trip. ---

TEST(BinaryGraph, RoundTripIsExact) {
  Rng rng(5);
  const Graph g = gnmRandom(50, 140, rng, {WeightModel::kUniform, 30.0});
  std::ostringstream out(std::ios::binary);
  writeGraphBinary(g, out);
  std::istringstream in(out.str(), std::ios::binary);
  const Graph back = readGraphBinary(in, g.numVertices());
  ASSERT_EQ(back.numVertices(), g.numVertices());
  // Edge ids round-trip exactly: same edges, same order, bit-equal weights.
  EXPECT_EQ(back.edges(), g.edges());
}

TEST(BinaryGraph, TruncationAndCorruptionAreRejected) {
  Rng rng(6);
  const Graph g = gnmRandom(20, 40, rng, {WeightModel::kUniform, 9.0});
  std::ostringstream out(std::ios::binary);
  writeGraphBinary(g, out);
  const std::string bytes = out.str();
  for (std::size_t len : {std::size_t{0}, std::size_t{3}, std::size_t{10},
                          bytes.size() / 2, bytes.size() - 1}) {
    std::istringstream in(bytes.substr(0, len), std::ios::binary);
    EXPECT_THROW(readGraphBinary(in, g.numVertices()), std::runtime_error)
        << "len=" << len;
  }
  std::string bad = bytes;
  bad[0] = 'Z';  // magic
  std::istringstream in(bad, std::ios::binary);
  EXPECT_THROW(readGraphBinary(in, g.numVertices()), std::runtime_error);
}

TEST(BinaryGraph, VertexCountAboveTheBoundThrowsBeforeAllocating) {
  Rng rng(7);
  const Graph g = gnmRandom(20, 40, rng, {WeightModel::kUniform, 9.0});
  std::ostringstream out(std::ios::binary);
  writeGraphBinary(g, out);
  const std::string bytes = out.str();
  // n is the u64 after the u32 magic and the u32 version. A flipped high
  // bit claims 2^29 + 20 vertices: under the format's global count cap, so
  // only the caller's bound stands between it and a CSR that size.
  std::string flipped = bytes;
  std::uint64_t n = 0;
  std::memcpy(&n, flipped.data() + 8, sizeof n);
  ASSERT_EQ(n, g.numVertices());
  n |= std::uint64_t{1} << 29;
  std::memcpy(flipped.data() + 8, &n, sizeof n);
  struct Case {
    const std::string* image;
    std::uint64_t bound;
  };
  for (const auto& [image, bound] :
       {Case{&bytes, g.numVertices() - 1}, Case{&flipped, bytes.size() / 32}}) {
    std::istringstream in(*image, std::ios::binary);
    try {
      {
        // The error message may allocate; a CSR may not.
        const test_alloc::AllocCap cap(4096);
        (void)readGraphBinary(in, bound);
      }
      ADD_FAILURE() << "n above the bound " << bound << " decoded";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("implausible count"),
                std::string::npos)
          << e.what();
    } catch (const std::bad_alloc&) {
      ADD_FAILURE() << "sized an allocation by n above the bound " << bound;
    }
  }
  // The true n is within its own bound.
  std::istringstream in(bytes, std::ios::binary);
  EXPECT_EQ(readGraphBinary(in, g.numVertices()).numVertices(),
            g.numVertices());
}

}  // namespace
}  // namespace mpcspan
