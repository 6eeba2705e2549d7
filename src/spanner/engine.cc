#include "spanner/engine.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <unordered_map>
#include <utility>

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

ScheduleEngine::ScheduleEngine(const Graph& g, std::uint32_t k)
    : g_(g), nSuper_(g.numVertices()), clusterOf_(nSuper_) {
  std::iota(clusterOf_.begin(), clusterOf_.end(), 0);
  inSpanner_.assign(g_.numEdges(), 0);
  result_.k = k;
  result_.inputVertices = g_.numVertices();
  result_.inputEdges = g_.numEdges();
}

SpannerResult ScheduleEngine::run(const std::vector<EpochSpec>& schedule) {
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

std::vector<char> ScheduleEngine::activeRoots() const {
  std::vector<char> rootActive(nSuper_, 0);
  for (VertexId s = 0; s < nSuper_; ++s)
    if (clusterOf_[s] != kNoVertex) rootActive[clusterOf_[s]] = 1;
  return rootActive;
}

std::vector<VertexId> ScheduleEngine::contractClusters() {
  std::vector<VertexId> newId(nSuper_, kNoVertex);
  std::size_t n2 = 0;
  for (VertexId s = 0; s < nSuper_; ++s)
    if (clusterOf_[s] == s) newId[s] = static_cast<VertexId>(n2++);
  std::vector<VertexId> relabel(nSuper_, kNoVertex);
  for (VertexId s = 0; s < nSuper_; ++s)
    if (clusterOf_[s] != kNoVertex) relabel[s] = newId[clusterOf_[s]];
  nSuper_ = n2;
  clusterOf_.resize(nSuper_);
  std::iota(clusterOf_.begin(), clusterOf_.end(), 0);
  return relabel;
}

ClusterEngine::ClusterEngine(const Graph& g, std::uint32_t k, Options opts)
    : ScheduleEngine(g, k), opts_(opts), defaultPolicy_(opts.seed) {
  if (k == 0) throw std::invalid_argument("ClusterEngine: k must be >= 1");
  alive_.reserve(g_.numEdges());
  for (EdgeId id = 0; id < g_.numEdges(); ++id)
    alive_.push_back(AliveEdge{g_.edge(id).u, g_.edge(id).v, id});
}

std::size_t ClusterEngine::grow(double p, std::uint64_t drawKey) {
  const std::vector<char> rootActive = activeRoots();
  std::size_t numRoots = 0;
  for (char c : rootActive) numRoots += c != 0;

  SamplingPolicy* policy = opts_.policy ? opts_.policy : &defaultPolicy_;
  auto dryRun = [this](const std::vector<char>& sampled) {
    return computePlan(sampled).stats;
  };
  const std::vector<char> sampled =
      policy->choose(rootActive, p, drawKey, dryRun, result_.repetition);

  applyPlan(computePlan(sampled));
  return numRoots;
}

ClusterEngine::Plan ClusterEngine::computePlan(const std::vector<char>& sampled) const {
  Plan plan;
  for (char c : sampled) plan.stats.sampledClusters += c != 0;
  for (VertexId s = 0; s < nSuper_; ++s) {
    if (clusterOf_[s] == kNoVertex) continue;
    ++plan.stats.activeSupernodes;
    if (clusterOf_[s] == s) ++plan.stats.totalClusters;
  }

  // Candidate records: for every super-node v whose cluster is unsampled,
  // one entry per incident alive edge, keyed by the neighbouring cluster.
  struct Cand {
    VertexId v;
    VertexId cluster;  // cluster root of the far endpoint
    Weight w;
    EdgeId id;
    std::uint32_t aliveIdx;
  };
  std::vector<Cand> cands;
  cands.reserve(alive_.size());
  auto isProcessing = [&](VertexId s) {
    return clusterOf_[s] != kNoVertex && !sampled[clusterOf_[s]];
  };
  for (std::uint32_t idx = 0; idx < alive_.size(); ++idx) {
    const AliveEdge& ae = alive_[idx];
    const Weight w = g_.edge(ae.id).w;
    if (isProcessing(ae.su))
      cands.push_back(Cand{ae.su, clusterOf_[ae.sv], w, ae.id, idx});
    if (isProcessing(ae.sv))
      cands.push_back(Cand{ae.sv, clusterOf_[ae.su], w, ae.id, idx});
  }
  std::sort(cands.begin(), cands.end(), [](const Cand& a, const Cand& b) {
    if (a.v != b.v) return a.v < b.v;
    if (a.cluster != b.cluster) return a.cluster < b.cluster;
    if (a.w != b.w) return a.w < b.w;
    return a.id < b.id;
  });

  // Track super-nodes that have *no* alive edges: they exit silently, which
  // the candidate sweep below cannot see. Collect them first.
  std::vector<char> hasEdge(nSuper_, 0);
  for (const Cand& c : cands) hasEdge[c.v] = 1;
  for (VertexId v = 0; v < nSuper_; ++v)
    if (isProcessing(v) && !hasEdge[v]) plan.exits.push_back(v);

  std::size_t i = 0;
  while (i < cands.size()) {
    const VertexId v = cands[i].v;
    const std::size_t vBegin = i;
    while (i < cands.size() && cands[i].v == v) ++i;
    const std::size_t vEnd = i;

    // First sweep: the closest sampled neighbour N(v) (min weight, ties by
    // edge id — the group is sorted, so the first edge of a sampled
    // cluster's sub-group is that cluster's minimum).
    Weight bestW = 0;
    EdgeId bestId = kNoEdge;
    VertexId bestCluster = kNoVertex;
    for (std::size_t a = vBegin; a < vEnd;) {
      const VertexId c = cands[a].cluster;
      const Cand& minCand = cands[a];  // sub-group min by (w, id)
      while (a < vEnd && cands[a].cluster == c) ++a;
      if (!sampled[c]) continue;
      if (bestId == kNoEdge || minCand.w < bestW ||
          (minCand.w == bestW && minCand.id < bestId)) {
        bestW = minCand.w;
        bestId = minCand.id;
        bestCluster = c;
      }
    }

    // Second sweep: per-cluster actions.
    for (std::size_t a = vBegin; a < vEnd;) {
      const VertexId c = cands[a].cluster;
      const std::size_t gBegin = a;
      while (a < vEnd && cands[a].cluster == c) ++a;
      const Cand& minCand = cands[gBegin];
      bool addAndDiscard;
      if (bestId == kNoEdge) {
        addAndDiscard = true;  // Step B4: no sampled neighbour at all
      } else if (c == bestCluster) {
        addAndDiscard = true;  // Step B3: the joined cluster's group
      } else {
        // Step B3, strictly-lighter rule (see Options::strictLighterRule).
        addAndDiscard = opts_.strictLighterRule && minCand.w < bestW;
      }
      if (addAndDiscard) {
        plan.spannerAdds.push_back(minCand.id);
        for (std::size_t x = gBegin; x < a; ++x)
          plan.deadAliveIdx.push_back(cands[x].aliveIdx);
      }
    }

    if (bestId == kNoEdge)
      plan.exits.push_back(v);
    else
      plan.joins.emplace_back(v, bestCluster);
  }

  // Unique added edges for the policy statistics.
  {
    std::vector<EdgeId> adds = plan.spannerAdds;
    std::sort(adds.begin(), adds.end());
    adds.erase(std::unique(adds.begin(), adds.end()), adds.end());
    std::size_t newAdds = 0;
    for (EdgeId id : adds) newAdds += inSpanner_[id] ? 0 : 1;
    plan.stats.edgesAdded = newAdds;
  }
  return plan;
}

void ClusterEngine::applyPlan(const Plan& plan) {
  for (const auto& [v, root] : plan.joins) clusterOf_[v] = root;
  for (VertexId v : plan.exits) clusterOf_[v] = kNoVertex;
  for (EdgeId id : plan.spannerAdds) inSpanner_[id] = 1;

  std::vector<char> dead(alive_.size(), 0);
  for (std::uint32_t idx : plan.deadAliveIdx) dead[idx] = 1;

  // Step B6: drop intra-cluster edges of the new clustering.
  std::vector<AliveEdge> next;
  next.reserve(alive_.size());
  for (std::uint32_t idx = 0; idx < alive_.size(); ++idx) {
    if (dead[idx]) continue;
    const AliveEdge& ae = alive_[idx];
    const VertexId cu = clusterOf_[ae.su];
    const VertexId cv = clusterOf_[ae.sv];
    assert(cu != kNoVertex && cv != kNoVertex &&
           "Lemma 5.6 invariant: alive edges have clustered endpoints");
    if (cu == cv) continue;
    next.push_back(ae);
  }
  alive_ = std::move(next);
}

void ClusterEngine::contract() {
  const std::vector<VertexId> relabel = contractClusters();

  // Relabel to cluster roots; keep the min-weight representative per pair
  // (Step C); all other parallel super-edges are silently discarded.
  struct Best {
    Weight w;
    std::uint32_t aliveIdx;
  };
  std::unordered_map<std::uint64_t, Best> best;
  best.reserve(alive_.size());
  for (std::uint32_t idx = 0; idx < alive_.size(); ++idx) {
    AliveEdge& ae = alive_[idx];
    ae.su = relabel[ae.su];
    ae.sv = relabel[ae.sv];
    assert(ae.su != kNoVertex && ae.sv != kNoVertex);
    assert(ae.su != ae.sv && "intra-cluster edges must be gone before contraction");
    VertexId a = ae.su, b = ae.sv;
    if (a > b) std::swap(a, b);
    const std::uint64_t key = (static_cast<std::uint64_t>(a) << 32) | b;
    const Weight w = g_.edge(ae.id).w;
    auto [it, inserted] = best.try_emplace(key, Best{w, idx});
    if (!inserted && (w < it->second.w ||
                      (w == it->second.w && ae.id < alive_[it->second.aliveIdx].id)))
      it->second = Best{w, idx};
  }
  std::vector<char> keep(alive_.size(), 0);
  for (const auto& [key, b] : best) keep[b.aliveIdx] = 1;
  std::vector<AliveEdge> next;
  next.reserve(best.size());
  for (std::uint32_t idx = 0; idx < alive_.size(); ++idx)
    if (keep[idx]) next.push_back(alive_[idx]);
  alive_ = std::move(next);
}

void ClusterEngine::phase2() {
  // Group alive edges by (original endpoint, opposite cluster); keep the
  // minimum per group, discard everything else.
  struct Best {
    Weight w;
    EdgeId id;
  };
  std::unordered_map<std::uint64_t, Best> best;
  best.reserve(2 * alive_.size());
  auto update = [&](VertexId origV, VertexId cluster, Weight w, EdgeId id) {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(origV) << 32) | cluster;
    auto [it, inserted] = best.try_emplace(key, Best{w, id});
    if (!inserted &&
        (w < it->second.w || (w == it->second.w && id < it->second.id)))
      it->second = Best{w, id};
  };
  for (const AliveEdge& ae : alive_) {
    const Edge& e = g_.edge(ae.id);
    const VertexId cu = clusterOf_[ae.su];
    const VertexId cv = clusterOf_[ae.sv];
    assert(cu != kNoVertex && cv != kNoVertex);
    update(e.u, cv, e.w, ae.id);
    update(e.v, cu, e.w, ae.id);
  }
  for (const auto& [key, b] : best) inSpanner_[b.id] = 1;
  alive_.clear();
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
