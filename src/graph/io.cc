#include "graph/io.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "graph/builder.hpp"

namespace mpcspan {

void writeEdgeList(const Graph& g, std::ostream& out) {
  out.precision(17);  // round-trip exact doubles
  out << "# mpcspan edge list\n";
  out << "n " << g.numVertices() << "\n";
  for (const Edge& e : g.edges()) out << e.u << ' ' << e.v << ' ' << e.w << "\n";
}

Graph readEdgeList(std::istream& in) {
  std::string line;
  std::size_t n = 0;
  bool haveN = false;
  std::vector<Edge> edges;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ss(line);
    if (!haveN) {
      std::string tag;
      ss >> tag;
      if (tag != "n" || !(ss >> n))
        throw std::runtime_error("edge list: expected header 'n <count>'");
      haveN = true;
      continue;
    }
    Edge e;
    if (!(ss >> e.u >> e.v)) throw std::runtime_error("edge list: bad edge line: " + line);
    if (!(ss >> e.w)) e.w = 1.0;
    edges.push_back(e);
  }
  if (!haveN) throw std::runtime_error("edge list: missing header");
  return graphFromEdges(n, edges);
}

void writeEdgeListFile(const Graph& g, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open for write: " + path);
  writeEdgeList(g, out);
}

Graph readEdgeListFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open for read: " + path);
  return readEdgeList(in);
}

// ---------------------------------------------------------------------------
// SNAP / DIMACS whitespace edge lists

namespace {

[[noreturn]] void badLine(std::size_t lineNo, const std::string& why,
                          const std::string& line) {
  throw std::runtime_error("snap/dimacs line " + std::to_string(lineNo) + ": " +
                           why + ": " + line);
}

// Strict non-negative integer token (no signs, no trailing junk).
bool parseId(const std::string& tok, std::uint64_t& out) {
  if (tok.empty()) return false;
  out = 0;
  for (char c : tok) {
    if (c < '0' || c > '9') return false;
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (out > (BinReader::kMaxCount - digit) / 10) return false;  // overflow cap
    out = out * 10 + digit;
  }
  return true;
}

bool parseWeight(const std::string& tok, double& out) {
  std::istringstream ss(tok);
  if (!(ss >> out)) return false;
  std::string leftover;
  if (ss >> leftover) return false;
  return std::isfinite(out) && out > 0.0;
}

}  // namespace

Graph readSnapDimacs(std::istream& in) {
  std::string line;
  std::size_t lineNo = 0;
  bool haveHeader = false;  // DIMACS "p sp n m"
  std::uint64_t headerN = 0, headerM = 0, arcCount = 0;
  // Staged (u, v, w) triples; vertex count fixed up afterwards for SNAP.
  std::vector<Edge> staged;
  std::uint64_t maxId = 0;
  bool sawEdge = false;

  while (std::getline(in, line)) {
    ++lineNo;
    std::istringstream ss(line);
    std::string first;
    if (!(ss >> first)) continue;  // blank
    if (first[0] == '#' || first[0] == '%' || first == "c") continue;

    if (first == "p") {
      if (haveHeader) badLine(lineNo, "duplicate DIMACS header", line);
      if (sawEdge) badLine(lineNo, "DIMACS header after edge data", line);
      std::string problem, nTok, mTok, extra;
      if (!(ss >> problem >> nTok >> mTok) || (ss >> extra))
        badLine(lineNo, "malformed 'p' header (want 'p sp <n> <m>')", line);
      if (problem != "sp")
        badLine(lineNo, "unsupported DIMACS problem type '" + problem + "'", line);
      if (!parseId(nTok, headerN) || !parseId(mTok, headerM))
        badLine(lineNo, "non-numeric DIMACS header counts", line);
      haveHeader = true;
      continue;
    }

    std::string uTok, vTok, wTok, extra;
    double w = 1.0;
    if (first == "a") {
      if (!haveHeader) badLine(lineNo, "arc line before 'p sp' header", line);
      if (!(ss >> uTok >> vTok >> wTok) || (ss >> extra))
        badLine(lineNo, "malformed arc (want 'a <u> <v> <w>')", line);
      if (!parseWeight(wTok, w))
        badLine(lineNo, "arc weight must be positive and finite", line);
      ++arcCount;
    } else {
      if (haveHeader)
        badLine(lineNo, "expected 'a' arc line after DIMACS header", line);
      uTok = first;
      if (!(ss >> vTok)) badLine(lineNo, "edge needs two endpoints", line);
      if (ss >> wTok) {
        if (ss >> extra) badLine(lineNo, "trailing tokens after edge", line);
        if (!parseWeight(wTok, w))
          badLine(lineNo, "edge weight must be positive and finite", line);
      }
    }

    std::uint64_t u = 0, v = 0;
    if (!parseId(uTok, u) || !parseId(vTok, v))
      badLine(lineNo, "non-numeric vertex id", line);
    if (haveHeader) {
      // DIMACS ids are 1-indexed and bounded by the header.
      if (u == 0 || v == 0 || u > headerN || v > headerN)
        badLine(lineNo, "vertex id out of DIMACS range [1, n]", line);
      --u;
      --v;
    }
    maxId = std::max(maxId, std::max(u, v));
    staged.push_back(Edge{static_cast<VertexId>(u), static_cast<VertexId>(v),
                          static_cast<Weight>(w)});
    sawEdge = true;
  }
  if (haveHeader && arcCount != headerM)
    throw std::runtime_error("snap/dimacs: header promises " +
                             std::to_string(headerM) + " arcs, file has " +
                             std::to_string(arcCount));

  const std::uint64_t n =
      haveHeader ? headerN : (sawEdge ? maxId + 1 : 0);
  if (n > BinReader::kMaxCount)
    throw std::runtime_error("snap/dimacs: implausible vertex count " +
                             std::to_string(n));
  // GraphBuilder canonicalizes: drops self-loops, orients u < v, collapses
  // parallel edges (and DIMACS forward/backward arc pairs) to min weight.
  GraphBuilder b(static_cast<std::size_t>(n));
  for (const Edge& e : staged) b.addEdge(e.u, e.v, e.w);
  return b.build();
}

Graph readSnapDimacsFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open for read: " + path);
  return readSnapDimacs(in);
}

// ---------------------------------------------------------------------------
// Binary primitives

// Every value goes out as its native bytes, which are the format's
// little-endian bytes on a little-endian host.
static_assert(std::endian::native == std::endian::little,
              "the binary formats are written as native little-endian bytes");

void BinWriter::bytes(const void* src, std::size_t len) {
  out_.write(static_cast<const char*>(src), static_cast<std::streamsize>(len));
}

void BinWriter::u32(std::uint32_t x) { bytes(&x, 4); }

void BinWriter::u64(std::uint64_t x) { bytes(&x, 8); }

void BinWriter::f64(double x) { bytes(&x, 8); }

void BinWriter::str(const std::string& s) {
  u32(static_cast<std::uint32_t>(s.size()));
  bytes(s.data(), s.size());
}

void BinWriter::u32Vec(const std::vector<std::uint32_t>& xs) {
  u64(xs.size());
  bytes(xs.data(), xs.size() * sizeof(std::uint32_t));
}

void BinWriter::u64Vec(const std::vector<std::uint64_t>& xs) {
  u64(xs.size());
  bytes(xs.data(), xs.size() * sizeof(std::uint64_t));
}

void BinWriter::f64Vec(const std::vector<double>& xs) {
  u64(xs.size());
  bytes(xs.data(), xs.size() * sizeof(double));
}

void BinReader::bytes(void* dst, std::size_t len) {
  in_.read(static_cast<char*>(dst), static_cast<std::streamsize>(len));
  if (static_cast<std::size_t>(in_.gcount()) != len)
    fail("truncated (unexpected end of stream)");
}

std::uint32_t BinReader::u32() {
  std::uint32_t x;
  bytes(&x, 4);
  return x;
}

std::uint64_t BinReader::u64() {
  std::uint64_t x;
  bytes(&x, 8);
  return x;
}

double BinReader::f64() {
  double x;
  bytes(&x, 8);
  return x;
}

std::uint64_t BinReader::count(std::uint64_t maxCount) {
  const std::uint64_t c = u64();
  if (c > maxCount)
    fail("implausible count " + std::to_string(c) + " (corrupt length field)");
  return c;
}

std::string BinReader::str(std::uint64_t maxLen) {
  const std::uint32_t len = u32();
  if (len > maxLen) fail("implausible string length " + std::to_string(len));
  std::string s(len, '\0');
  if (len) bytes(s.data(), len);
  return s;
}

namespace {
// Elements a reader sizes a container for ahead of the bytes that fill it.
constexpr std::uint64_t kGrowChunk = 1u << 16;
}  // namespace

template <typename T>
std::vector<T> BinReader::vec(std::uint64_t maxCount) {
  const std::uint64_t c = count(maxCount);
  std::vector<T> xs;
  while (xs.size() < c) {
    const std::size_t at = xs.size();
    xs.resize(at + static_cast<std::size_t>(std::min(kGrowChunk, c - at)));
    bytes(xs.data() + at, (xs.size() - at) * sizeof(T));
  }
  return xs;
}

std::vector<std::uint32_t> BinReader::u32Vec(std::uint64_t maxCount) {
  return vec<std::uint32_t>(maxCount);
}

std::vector<std::uint64_t> BinReader::u64Vec(std::uint64_t maxCount) {
  return vec<std::uint64_t>(maxCount);
}

std::vector<double> BinReader::f64Vec(std::uint64_t maxCount) {
  return vec<double>(maxCount);
}

void BinReader::expectEof() {
  if (in_.peek() != std::char_traits<char>::eof())
    fail("trailing bytes after payload");
}

void BinReader::fail(const std::string& why) const {
  throw std::runtime_error(std::string(what_) + ": " + why);
}

// ---------------------------------------------------------------------------
// Binary graph

namespace {
constexpr std::uint32_t kGraphMagic = 0x4247504du;  // "MPGB" little-endian
constexpr std::uint32_t kGraphVersion = 1;
}  // namespace

void writeGraphBinary(const Graph& g, std::ostream& out) {
  BinWriter w(out);
  w.u32(kGraphMagic);
  w.u32(kGraphVersion);
  w.u64(g.numVertices());
  w.u64(g.numEdges());
  // The section's (u32 u, u32 v, f64 w) triples are exactly Edge's bytes.
  static_assert(std::is_trivially_copyable_v<Edge> && sizeof(Edge) == 16 &&
                    offsetof(Edge, v) == 4 && offsetof(Edge, w) == 8 &&
                    sizeof(VertexId) == 4 && sizeof(Weight) == 8,
                "Edge must be (u32, u32, f64) with no padding");
  w.bytes(g.edges().data(), g.edges().size() * sizeof(Edge));
}

Graph readGraphBinary(std::istream& in, std::uint64_t maxVertices) {
  BinReader r(in, "binary graph");
  if (r.u32() != kGraphMagic) r.fail("bad magic (not an mpcspan binary graph)");
  const std::uint32_t version = r.u32();
  if (version != kGraphVersion)
    r.fail("unsupported version " + std::to_string(version));
  const std::uint64_t n = r.count(std::min(maxVertices, BinReader::kMaxCount));
  const std::uint64_t m = r.count();
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(std::min(m, kGrowChunk)));
  for (std::uint64_t i = 0; i < m; ++i) {
    Edge e;
    e.u = r.u32();
    e.v = r.u32();
    e.w = r.f64();
    if (e.u >= n || e.v >= n) r.fail("edge endpoint out of range");
    if (e.u >= e.v || (!edges.empty() && (e.u < edges.back().u ||
                                           (e.u == edges.back().u &&
                                            e.v <= edges.back().v))))
      r.fail("edge list not canonical (want u < v, (u, v) strictly increasing)");
    if (!(e.w > 0.0) || !std::isfinite(e.w))
      r.fail("edge weight must be positive and finite");
    edges.push_back(e);
  }
  // The edges are canonical, so graphFromEdges keeps them (and their ids)
  // exactly as read.
  return graphFromEdges(static_cast<std::size_t>(n), edges);
}

}  // namespace mpcspan
