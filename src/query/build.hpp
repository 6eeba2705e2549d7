// Build once, serve many: the query artifact.
//
// buildSpanner is the one build path: it maps a BuildPlan's algorithm name
// to its builder (ClusterEngine on the host or on the MPC simulator) and
// returns one SpannerResult. buildArtifact runs the full pipeline on top of
// it — spanner, Thorup–Zwick sketches on the spanner — and captures
// everything serving needs in one QueryArtifact. The artifact
// saves to a versioned binary file (BinWriter/BinReader, graph/io.hpp) and
// loads back without *any* recomputation: sketches are adopted from their
// serialized tables. An artifact built by the distributed sharded pipeline
// is served identically to a host-built one.
//
// makeQueryPlane assembles the serving stack from a loaded (or
// freshly built) artifact: the sketch floor and exact, the two rungs of a
// TieredOracle.
//
// File layout (little-endian; all counts bounds-checked on load, any
// truncation or corruption throws std::runtime_error before any partially
// valid object escapes):
//   "MPQA" magic, version u32
//   graph section       (writeGraphBinary)
//   spanner section     algorithm str, k u32, t u32, stretch f64,
//                       edge-id vec (validated < m)
//   sketch section      params (k u32, seed u64), composed stretch f64,
//                       SketchTables (validated by the adopting ctor)
//   serving section     cacheSources u64 (unread, see BuildPlan), buildRounds
//                       u64, wordsMoved u64
//   EOF                 (trailing bytes are an error)
#pragma once

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "apsp/sketches.hpp"
#include "graph/graph.hpp"
#include "query/adapters.hpp"
#include "query/tiered.hpp"
#include "runtime/types.hpp"
#include "spanner/types.hpp"

namespace mpcspan::query {

/// Every algorithm name buildSpanner accepts.
inline constexpr const char* kSpannerAlgos =
    "baswana-sen|cluster-merging|sqrtk|tradeoff|unweighted-fast|"
    "dist-baswana-sen|dist-tradeoff";

/// The largest k and t a plan may ask for (BuildPlan::validate), and the
/// most Thorup–Zwick levels a plan may ask for and an artifact carry.
inline constexpr std::uint32_t kMaxK = 64;
inline constexpr std::uint32_t kMaxT = 64;
inline constexpr std::uint32_t kMaxSketchK = 4096;

/// Everything a build needs to know. `algo` is one of kSpannerAlgos: the
/// host engine's algorithms (`gamma` applies to unweighted-fast, which needs
/// an unweighted graph), or "dist-*" on the sharded MPC simulator
/// (`threads`/`shards`/`gamma` apply). buildArtifact also sizes its sketch
/// stage from `threads`/`shards`, for every algo.
struct BuildPlan {
  std::string algo = "tradeoff";
  std::uint32_t k = 8;
  std::uint32_t t = 0;  // tradeoff growth iterations; 0 = ceil(log2 k)
  std::uint64_t seed = 1;
  std::uint32_t sketchK = 3;
  std::uint64_t sketchSeed = 1;
  // Unread. It still rides in the MPQA serving section (and e2ebench
  // passes it through) so that the artifact format and its version stay as
  // they are; it goes with the next artifact version.
  std::size_t cacheSources = 64;
  // dist-*: the simulator's stepping threads and shards. The sketch stage
  // of buildArtifact runs on max(threads, shards) pool lanes, threads = 0
  // counting as the pool's default, whatever the algo: the simulator is
  // freed by then.
  std::size_t threads = 0;
  std::size_t shards = 0;
  double gamma = 0.5;             // dist-*: machine memory exponent

  /// Throws std::invalid_argument naming the first field outside its range:
  ///   - algo: one of kSpannerAlgos;
  ///   - k: [1, kMaxK]. The stretch is 2k − 1, and once k exceeds log2 n
  ///     (< 32 for any graph VertexId can index) a larger k changes nothing;
  ///   - t: [0, kMaxT] growth iterations per epoch (0 = ceil(log2 k));
  ///   - gamma: (0, 1], the exponent of the machine memory S = N^gamma;
  ///   - sketchK: [1, kMaxSketchK];
  ///   - threads, shards: 0 (the default) or at most runtime::kMaxThreads.
  /// buildSpanner, and so buildArtifact, calls it before any work.
  void validate() const;
};

/// Builds the spanner `plan` names. A dist-* build provisions its simulator
/// for ~4x the edge tuples. Throws std::invalid_argument on a plan that
/// fails BuildPlan::validate.
SpannerResult buildSpanner(const Graph& g, const BuildPlan& plan);

/// The serve-side state: input graph, spanner (edge ids + certified
/// stretch), sketches built on the spanner, and serving parameters.
struct QueryArtifact {
  Graph graph;
  std::vector<EdgeId> spannerEdges;  // ids into graph.edges(), sorted
  std::string algorithm;
  std::uint32_t k = 0;
  std::uint32_t t = 0;
  double spannerStretch = 0;  // certified (dist-tradeoff: theoretical k^s)
  SketchParams sketchParams;
  double composedStretch = 0;  // sketch stretch * spanner stretch
  DistanceSketches sketches;   // built on the spanner subgraph
  std::size_t cacheSources = 64;  // unread; see BuildPlan::cacheSources
  std::size_t buildRounds = 0;  // dist-*: simulator communication rounds
  std::size_t wordsMoved = 0;   // dist-*: total words routed
};

QueryArtifact buildArtifact(const Graph& g, const BuildPlan& plan);

void saveArtifact(const QueryArtifact& a, std::ostream& out);
QueryArtifact loadArtifact(std::istream& in);
void saveArtifactFile(const QueryArtifact& a, const std::string& path);
QueryArtifact loadArtifactFile(const std::string& path);

/// The assembled serving stack. Owns all backing structures; `tiered` is
/// the entry point.
struct QueryPlane {
  std::shared_ptr<const Graph> graph;
  std::shared_ptr<const DistanceSketches> sketches;
  std::shared_ptr<TieredOracle> tiered;
};

/// Assembles the two rungs over the artifact's structures: the sketch
/// floor at the composed stretch and bidirectional Dijkstra on the input
/// graph at stretch 1. Takes the artifact's graph and sketches into shared
/// ownership: move an artifact in that is not needed afterwards, and the
/// tables are never copied (an lvalue argument is copied first).
QueryPlane makeQueryPlane(QueryArtifact a);

}  // namespace mpcspan::query
