// Graph I/O.
//
// Three formats:
//  - the repo's plain-text edge list ("u v w" per line, '#' comments, a
//    leading "n <count>" header fixing the vertex count),
//  - a little-endian binary graph section (writeGraphBinary/readGraphBinary)
//    used standalone and as the graph section of the query artifacts
//    (src/query/build.hpp), built on the bounds-checked BinWriter/BinReader
//    primitives exported here,
//  - a minimal loader for public big-graph formats: SNAP whitespace edge
//    lists ("u v [w]", '#'/'%' comments, n inferred) and DIMACS shortest
//    -path files ("c" comments, "p sp n m" header, "a u v w" arcs,
//    1-indexed). Both are deduplicated and canonicalized via GraphBuilder.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace mpcspan {

void writeEdgeList(const Graph& g, std::ostream& out);
Graph readEdgeList(std::istream& in);

void writeEdgeListFile(const Graph& g, const std::string& path);
Graph readEdgeListFile(const std::string& path);

/// SNAP / DIMACS whitespace edge-list loader. Accepts SNAP-style rows
/// "u v [w]" (0-indexed ids; vertex count inferred as max id + 1) and
/// DIMACS-sp files ("p sp <n> <m>" header, "a u v w" arcs, 1-indexed ids
/// validated against the header). Comment lines start with '#', '%', or
/// "c". Self-loops are dropped and parallel edges collapse to the minimum
/// weight (GraphBuilder canonicalization). Throws std::runtime_error with
/// the offending line number on malformed input (non-numeric tokens,
/// non-positive or non-finite weights, ids out of range, trailing tokens).
Graph readSnapDimacs(std::istream& in);
Graph readSnapDimacsFile(const std::string& path);

/// Little-endian binary serialization primitives with explicit bounds
/// checks: every read validates the stream state, every count is capped,
/// and a container grows only as its bytes actually arrive (at most one
/// 64Ki-element chunk ahead of them), so truncated or corrupt inputs
/// surface as std::runtime_error instead of huge allocations or partially
/// valid objects.
class BinWriter {
 public:
  explicit BinWriter(std::ostream& out) : out_(out) {}
  void u32(std::uint32_t x);
  void u64(std::uint64_t x);
  void f64(double x);
  void str(const std::string& s);  // u32 length + bytes
  void u32Vec(const std::vector<std::uint32_t>& xs);
  void u64Vec(const std::vector<std::uint64_t>& xs);
  void f64Vec(const std::vector<double>& xs);
  /// Writes `len` raw bytes; each *Vec writes its count, then its array in
  /// one call.
  void bytes(const void* src, std::size_t len);

 private:
  std::ostream& out_;
};

class BinReader {
 public:
  /// `what` names the format in error messages ("artifact", "graph", ...).
  BinReader(std::istream& in, const char* what) : in_(in), what_(what) {}

  std::uint32_t u32();
  std::uint64_t u64();
  double f64();
  std::string str(std::uint64_t maxLen = kMaxCount);
  /// Reads a u64 count, rejecting values above `maxCount` (default: the
  /// global plausibility cap) before any allocation happens.
  std::uint64_t count(std::uint64_t maxCount = kMaxCount);
  std::vector<std::uint32_t> u32Vec(std::uint64_t maxCount = kMaxCount);
  std::vector<std::uint64_t> u64Vec(std::uint64_t maxCount = kMaxCount);
  std::vector<double> f64Vec(std::uint64_t maxCount = kMaxCount);
  /// Throws unless the stream is exactly exhausted.
  void expectEof();
  [[noreturn]] void fail(const std::string& why) const;

  static constexpr std::uint64_t kMaxCount = 1ull << 30;

 private:
  void bytes(void* dst, std::size_t len);
  template <typename T>
  std::vector<T> vec(std::uint64_t maxCount);

  std::istream& in_;
  const char* what_;
};

/// Binary graph: "MPGB" magic, format version, n, m, canonical (u, v, w)
/// edge triples. Round-trips a Graph exactly (edge ids included). The
/// reader rejects an edge list that is not canonical (u < v, (u, v)
/// strictly increasing), so whatever loads re-saves to the same bytes. The
/// CSR is sized by n, which the section's own bytes do not bound, so the
/// caller must: an n above `maxVertices` (the vertex count the enclosing
/// container can back, e.g. the MPQA reader's bytes-left bound) is rejected
/// before anything is sized by it.
void writeGraphBinary(const Graph& g, std::ostream& out);
Graph readGraphBinary(std::istream& in, std::uint64_t maxVertices);

}  // namespace mpcspan
