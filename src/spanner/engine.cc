#include "spanner/engine.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "mpc/dist_iteration.hpp"

namespace mpcspan {

// ---------------------------------------------------------------------------
// Sampling
// ---------------------------------------------------------------------------

std::vector<char> HashCoinPolicy::draw(const std::vector<char>& rootActive, double p,
                                       std::uint64_t seed, std::uint64_t drawKey) {
  std::vector<char> sampled(rootActive.size(), 0);
  if (p <= 0.0) return sampled;
  // Threshold comparison on a per-root hash: root r is sampled iff
  // U(seed, drawKey, r) < p, with U uniform in [0,1). Each root decides
  // locally and independently, as in the distributed model.
  const double threshold = std::min(p, 1.0);
  for (std::size_t r = 0; r < rootActive.size(); ++r) {
    if (!rootActive[r]) continue;
    const std::uint64_t h =
        mix64(seed ^ mix64(drawKey * 0x9e3779b97f4a7c15ULL + r + 1));
    const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    sampled[r] = u < threshold ? 1 : 0;
  }
  return sampled;
}

std::vector<char> HashCoinPolicy::choose(
    const std::vector<char>& rootActive, double p, std::uint64_t drawKey,
    const std::function<IterPlanStats(const std::vector<char>&)>& /*dryRun*/,
    SpannerResult::RepetitionStats& stats) {
  ++stats.totalDraws;
  return draw(rootActive, p, seed_, drawKey);
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

namespace {

using JoinMap = std::unordered_map<VertexId, ClosestSampled>;

JoinMap joinsOf(const DistIterationResult& mins) {
  JoinMap joins;
  joins.reserve(mins.joins.size());
  for (const ClosestSampled& cs : mins.joins) joins.emplace(cs.v, cs);
  return joins;
}

/// Steps B3/B4: whether group `gm`'s minimum edge joins the spanner (and
/// the group's edges are discarded), given the join decisions.
bool addsGroup(const GroupMinEdge& gm, const JoinMap& joins, bool strictLighterRule) {
  const auto it = joins.find(gm.v);
  if (it == joins.end()) return true;  // Step B4: no sampled neighbour at all
  if (gm.cluster == it->second.cluster) return true;  // Step B3: the joined cluster
  // Step B3, strictly-lighter rule (see Options::strictLighterRule).
  return strictLighterRule && gm.w < it->second.w;
}

}  // namespace

ClusterEngine::ClusterEngine(const Graph& g, std::uint32_t k, Options opts)
    : g_(g),
      opts_(opts),
      defaultPolicy_(opts.seed),
      pool_(opts.sim ? &opts.sim->engine().pool() : nullptr),
      superOf_(g.numVertices()),
      clusterOf_(g.numVertices()),
      alive_(g.numEdges(), 1),
      inSpanner_(g.numEdges(), 0) {
  if (k == 0) throw std::invalid_argument("ClusterEngine: k must be >= 1");
  std::iota(superOf_.begin(), superOf_.end(), 0);
  std::iota(clusterOf_.begin(), clusterOf_.end(), 0);
  result_.k = k;
  result_.inputVertices = g_.numVertices();
  result_.inputEdges = g_.numEdges();
}

SpannerResult ClusterEngine::run(const std::vector<EpochSpec>& schedule) {
  for (std::size_t epochIdx = 0; epochIdx < schedule.size(); ++epochIdx) {
    const EpochSpec& spec = schedule[epochIdx];
    std::size_t active = 0;
    for (const VertexId c : clusterOf_) active += c != kNoVertex;
    result_.supernodesPerEpoch.push_back(active);

    const double p = std::clamp(spec.prob ? spec.prob(active) : 0.5, 0.0, 1.0);
    result_.samplingProbs.push_back(p);

    for (std::uint32_t j = 0; j < spec.iterations; ++j) {
      result_.cost.charge(Prim::kSample);
      result_.cost.charge(Prim::kFindMin);
      result_.cost.charge(Prim::kMerge);
      const std::uint64_t drawKey = (static_cast<std::uint64_t>(epochIdx) << 32) | j;
      result_.clustersPerIteration.push_back(grow(p, drawKey));
      ++result_.iterations;
    }
    if (spec.contractAfter) {
      result_.cost.charge(Prim::kContraction);
      contract();
    }
    ++result_.epochs;
  }
  result_.cost.charge(Prim::kFindMin);
  phase2();

  const ScheduleBound bound = certifySchedule(schedule);
  result_.finalRadius = bound.finalRadius;
  result_.stretchBound = bound.stretchBound;

  result_.edges.clear();
  for (EdgeId id = 0; id < inSpanner_.size(); ++id)
    if (inSpanner_[id]) result_.edges.push_back(id);
  return std::move(result_);
}

IterPlanStats ClusterEngine::dryRun(const std::vector<char>& sampled) const {
  IterPlanStats stats;
  for (char c : sampled) stats.sampledClusters += c != 0;
  for (VertexId s = 0; s < clusterOf_.size(); ++s) {
    if (clusterOf_[s] == kNoVertex) continue;
    ++stats.activeSupernodes;
    if (clusterOf_[s] == s) ++stats.totalClusters;
  }
  const DistIterationResult mins =
      findMinimum(nullptr, g_, superOf_, clusterOf_, sampled, &alive_);
  const JoinMap joins = joinsOf(mins);
  std::vector<EdgeId> adds;
  for (const GroupMinEdge& gm : mins.groupMins)
    if (!inSpanner_[gm.id] && addsGroup(gm, joins, opts_.strictLighterRule))
      adds.push_back(gm.id);
  std::sort(adds.begin(), adds.end());
  stats.edgesAdded = static_cast<std::size_t>(
      std::unique(adds.begin(), adds.end()) - adds.begin());
  return stats;
}

void ClusterEngine::forEdgeChunks(
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (pool_)
    pool_->parallelForChunks(g_.numEdges(), kEdgeChunk, fn);
  else
    fn(0, g_.numEdges());
}

std::size_t ClusterEngine::grow(double p, std::uint64_t drawKey) {
  std::vector<char> rootActive(clusterOf_.size(), 0);
  for (VertexId s = 0; s < clusterOf_.size(); ++s)
    if (clusterOf_[s] != kNoVertex) rootActive[clusterOf_[s]] = 1;

  SamplingPolicy* policy = opts_.policy ? opts_.policy : &defaultPolicy_;
  const std::vector<char> sampled = policy->choose(
      rootActive, p, drawKey,
      [this](const std::vector<char>& s) { return dryRun(s); },
      result_.repetition);

  // Steps B3/B4: every added group's minimum edge joins the spanner and the
  // group's edges are discarded.
  const DistIterationResult mins =
      findMinimum(opts_.sim, g_, superOf_, clusterOf_, sampled, &alive_);
  const JoinMap joins = joinsOf(mins);
  std::unordered_set<std::uint64_t> discard;
  discard.reserve(mins.groupMins.size());
  for (const GroupMinEdge& gm : mins.groupMins) {
    if (!addsGroup(gm, joins, opts_.strictLighterRule)) continue;
    inSpanner_[gm.id] = 1;
    discard.insert(packGroupKey(gm.v, gm.cluster));
  }

  auto processing = [&](VertexId s) {
    return clusterOf_[s] != kNoVertex && !sampled[clusterOf_[s]];
  };
  // Step B5. Each edge id writes only its own alive flag, and the discard
  // set is read-only here, so the result is schedule-independent.
  forEdgeChunks([&](std::size_t begin, std::size_t end) {
    for (EdgeId id = static_cast<EdgeId>(begin); id < end; ++id) {
      if (!alive_[id]) continue;
      const Edge& e = g_.edge(id);
      const VertexId su = superOf_[e.u];
      const VertexId sv = superOf_[e.v];
      const bool deadU =
          processing(su) && discard.count(packGroupKey(su, clusterOf_[sv])) > 0;
      const bool deadV =
          processing(sv) && discard.count(packGroupKey(sv, clusterOf_[su])) > 0;
      if (deadU || deadV) alive_[id] = 0;
    }
  });

  // Unsampled super-nodes join N(v), or exit when they have none.
  std::vector<VertexId> next = clusterOf_;
  for (VertexId s = 0; s < clusterOf_.size(); ++s) {
    if (!processing(s)) continue;
    const auto it = joins.find(s);
    next[s] = it != joins.end() ? it->second.cluster : kNoVertex;
  }
  clusterOf_ = std::move(next);

  // Step B6: drop intra-cluster edges of the new clustering.
  forEdgeChunks([&](std::size_t begin, std::size_t end) {
    for (EdgeId id = static_cast<EdgeId>(begin); id < end; ++id) {
      if (!alive_[id]) continue;
      const Edge& e = g_.edge(id);
      const VertexId cu = clusterOf_[superOf_[e.u]];
      const VertexId cv = clusterOf_[superOf_[e.v]];
      assert(cu != kNoVertex && cv != kNoVertex &&
             "Lemma 5.6 invariant: alive edges have clustered endpoints");
      if (cu == cv) alive_[id] = 0;
    }
  });
  return static_cast<std::size_t>(
      std::count(rootActive.begin(), rootActive.end(), 1));
}

void ClusterEngine::contract() {
  std::vector<VertexId> newId(clusterOf_.size(), kNoVertex);
  std::size_t n2 = 0;
  for (VertexId s = 0; s < clusterOf_.size(); ++s)
    if (clusterOf_[s] == s) newId[s] = static_cast<VertexId>(n2++);
  for (VertexId& s : superOf_) {
    if (s == kNoVertex) continue;
    const VertexId root = clusterOf_[s];
    s = root == kNoVertex ? kNoVertex : newId[root];
  }
  clusterOf_.resize(n2);
  std::iota(clusterOf_.begin(), clusterOf_.end(), 0);

  // Keep the lightest edge per super-node pair (the tuple key), ties by edge
  // id; all other parallel super-edges are discarded.
  std::vector<CandTuple> tuples;
  for (EdgeId id = 0; id < g_.numEdges(); ++id) {
    if (!alive_[id]) continue;
    const Edge& e = g_.edge(id);
    VertexId a = superOf_[e.u];
    VertexId b = superOf_[e.v];
    assert(a != kNoVertex && b != kNoVertex && a != b &&
           "intra-cluster edges must be gone before contraction");
    if (a > b) std::swap(a, b);
    tuples.push_back({packGroupKey(a, b), e.w, id});
  }
  std::fill(alive_.begin(), alive_.end(), 0);
  for (const CandTuple& t : lightestPerKey(std::move(tuples), opts_.sim))
    alive_[t.id] = 1;
}

void ClusterEngine::phase2() {
  // Every vertex is its own super-node and nothing is sampled, so every
  // group minimum per (vertex, neighbouring cluster) joins the spanner.
  const std::size_t n = g_.numVertices();
  std::vector<VertexId> identity(n);
  std::iota(identity.begin(), identity.end(), 0);
  std::vector<VertexId> clusterOfVertex(n, kNoVertex);
  for (VertexId v = 0; v < n; ++v)
    if (superOf_[v] != kNoVertex) clusterOfVertex[v] = clusterOf_[superOf_[v]];
  const DistIterationResult mins = findMinimum(
      opts_.sim, g_, identity, clusterOfVertex, std::vector<char>(n, 0), &alive_);
  for (const GroupMinEdge& gm : mins.groupMins) inSpanner_[gm.id] = 1;
}

ScheduleBound certifySchedule(const std::vector<EpochSpec>& schedule) {
  // Lemma 5.8: a growth iteration adds 2 * rSuper + 1 to the radius, and a
  // contraction makes the current radius the new super-node radius.
  double r = 0, rSuper = 0, contractedSum = 0;
  bool contracted = false;
  for (const EpochSpec& spec : schedule) {
    for (std::uint32_t j = 0; j < spec.iterations; ++j) r += 2.0 * rSuper + 1.0;
    if (!spec.contractAfter) continue;
    contracted = true;
    contractedSum += r;
    rSuper = r;
  }
  // Without a contraction the schedule is Baswana-Sen growth, whose
  // classical analysis certifies 2r + 1. Otherwise every discarded edge is
  // spanned within 4r + 2 times its weight (Theorem 5.11 cases), except
  // step-C contraction discards, which chain through surviving
  // representatives and pick up at most two cluster traversals per
  // contraction: the 2 * sum(r at contraction) correction.
  return {r, contracted ? 4.0 * r + 2.0 + 2.0 * contractedSum : 2.0 * r + 1.0};
}

std::vector<EpochSpec> tradeoffSchedule(std::size_t n, std::uint32_t k, std::uint32_t t) {
  if (t == 0) t = 1;
  std::vector<EpochSpec> schedule;
  if (k <= 1) return schedule;
  const double lk = std::log(static_cast<double>(k));
  const double lt = std::log(static_cast<double>(t) + 1.0);
  const auto l = static_cast<std::size_t>(std::ceil(lk / lt - 1e-9));
  const double dn = static_cast<double>(std::max<std::size_t>(n, 2));
  for (std::size_t i = 1; i <= std::max<std::size_t>(l, 1); ++i) {
    // p_i = n^{-(t+1)^{i-1}/k}, exponent clamped at 1 (p >= 1/n always).
    double expo = std::pow(static_cast<double>(t) + 1.0,
                           static_cast<double>(i - 1)) /
                  static_cast<double>(k);
    expo = std::min(expo, 1.0);
    const double p = std::pow(dn, -expo);
    EpochSpec spec;
    spec.iterations = t;
    spec.prob = [p](std::size_t) { return p; };
    spec.contractAfter = true;
    schedule.push_back(spec);
  }
  return schedule;
}

}  // namespace mpcspan
