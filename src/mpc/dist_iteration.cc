#include "mpc/dist_iteration.hpp"

#include <algorithm>
#include <optional>

#include "mpc/growth_kernels.hpp"
#include "mpc/primitives.hpp"

namespace mpcspan {

namespace {

// Stateless comparator/predicate objects: every phase of the iteration runs
// as a registered kernel, so the orderings and the sampled-cluster filter
// cross into the shard workers by type and are default-constructed there
// (see mpc/primitives.hpp and mpc/growth_kernels.hpp).
struct CandByKey {
  // Primary order is packed word 0 (CandTuple::key), ascending — lets the
  // sort kernels run flat key passes (detail::PackedKeyWord).
  static constexpr std::size_t kPackedKeyWord = 0;
  bool operator()(const CandTuple& a, const CandTuple& b) const {
    if (a.key != b.key) return a.key < b.key;
    return betterCand(a, b);
  }
};
struct CandKey {
  std::uint64_t operator()(const CandTuple& c) const { return c.key; }
};
struct CandVertex {  // v only
  std::uint64_t operator()(const CandTuple& c) const { return c.key >> 32; }
};
struct CandByVertex {
  bool operator()(const CandTuple& a, const CandTuple& b) const {
    if (CandVertex{}(a) != CandVertex{}(b)) return CandVertex{}(a) < CandVertex{}(b);
    return betterCand(a, b);
  }
};
struct CandBetter {
  bool operator()(const CandTuple& a, const CandTuple& b) const {
    return betterCand(a, b);
  }
};
/// Keeps a group minimum iff its cluster (low key half) is sampled.
struct SampledClusterPred {
  bool operator()(const CandTuple& c, const Word* bits,
                  std::size_t numBits) const {
    return runtime::testArgBit(
        bits, numBits, static_cast<std::size_t>(c.key & 0xffffffffu));
  }
};

}  // namespace

DistIterationResult distIterationKernel(MpcSimulator& sim, const Graph& g,
                                        const std::vector<VertexId>& superOf,
                                        const std::vector<VertexId>& clusterOf,
                                        const std::vector<char>& sampled,
                                        const std::vector<char>* alive) {
  DistIterationResult out;
  const std::size_t startRounds = sim.rounds();
  runtime::RoundEngine& eng = sim.engine();
  const std::size_t p = eng.numMachines();

  // (1) min edge per (v, cluster): distributed sort + segmented min. The
  // candidate sweep is host-side (the graph lives with the coordinator);
  // everything after the initial block shipment stays worker-side.
  std::vector<CandTuple> cands = buildCandidates(g, superOf, clusterOf, sampled,
                                                 alive, &eng.pool());
  std::optional<DistVector<CandTuple>> sampledMins;
  {
    DistVector<CandTuple> dv(sim, cands);
    distSort(dv, CandByKey{});
    const std::vector<CandTuple> reduced =
        segmentedMinSorted(dv, CandKey{}, CandBetter{});
    out.groupMins.reserve(reduced.size());
    for (const CandTuple& c : reduced)
      out.groupMins.push_back(GroupMinEdge{static_cast<VertexId>(c.key >> 32),
                                           static_cast<VertexId>(c.key & 0xffffffffu),
                                           c.w, c.id});

    // (2)'s input — the group minima of *sampled* clusters, keyed by v — is
    // built without a coordinator round trip: the segmented min's reduced
    // sequence is emitted into a worker-resident block, filtered against
    // broadcast sampled bits, and re-laid out in DistVector order by a free
    // data-placement shuffle. Bit-identical to collecting host-side,
    // filtering, and re-shipping (which is what the coordinator-built path
    // did), with the same — free — ledger.
    const runtime::KernelId kSeg = runtime::ensureKernel<
        SegMinKernel<CandTuple, CandKey, CandBetter>>(eng);
    // Leased / DistVector-owned from birth: a thrown round leaves the
    // engine usable by contract, so a retrying caller must not find dead
    // blocks accumulating in the workers.
    const runtime::BlockLease reducedBlocks(
        eng, eng.createBlocks(std::vector<std::vector<Word>>(p)));
    eng.stepLocal(kSeg, {kSegPhaseEmit, reducedBlocks.handle()});

    const runtime::KernelId kFilter = runtime::ensureKernel<
        FilterScatterKernel<CandTuple, SampledClusterPred>>(eng);
    const std::vector<Word> bits = runtime::packArgBits(sampled);
    std::vector<Word> countArgs{kFilterPhaseCount, reducedBlocks.handle(),
                                sampled.size()};
    countArgs.insert(countArgs.end(), bits.begin(), bits.end());
    std::vector<Word> offsets(p, 0);
    std::size_t sampledTotal = 0;
    {
      const std::vector<std::vector<Word>> counts =
          eng.fetchKernel(kFilter, countArgs);
      for (std::size_t m = 0; m < p; ++m) {
        offsets[m] = sampledTotal;
        sampledTotal += static_cast<std::size_t>(counts[m].at(0));
      }
    }
    const std::size_t cap = distVectorCapItems<CandTuple>(sim);
    if (sampledTotal > p * cap)
      throw CapacityError("DistVector: data does not fit in the cluster");
    sampledMins.emplace(DistVector<CandTuple>::adopt(
        sim, eng.createBlocks(std::vector<std::vector<Word>>(p)),
        sampledTotal));
    std::vector<Word> scatterArgs{kFilterPhaseScatter, reducedBlocks.handle(),
                                  sampled.size(), cap};
    scatterArgs.insert(scatterArgs.end(), offsets.begin(), offsets.end());
    scatterArgs.insert(scatterArgs.end(), bits.begin(), bits.end());
    eng.stepShuffle(kFilter, scatterArgs);
    eng.stepLocal(kFilter, {kFilterPhaseBuild, sampledMins->handle()});
  }

  // (2) closest sampled cluster per v: second segmented min, keyed by v,
  // over the worker-resident sampled-cluster group minima.
  {
    DistVector<CandTuple>& dv = *sampledMins;
    distSort(dv, CandByVertex{});
    const std::vector<CandTuple> reduced =
        segmentedMinSorted(dv, CandVertex{}, CandBetter{});
    out.joins.reserve(reduced.size());
    for (const CandTuple& c : reduced)
      out.joins.push_back(ClosestSampled{static_cast<VertexId>(c.key >> 32),
                                         static_cast<VertexId>(c.key & 0xffffffffu),
                                         c.w, c.id});
  }

  out.roundsUsed = sim.rounds() - startRounds;
  return out;
}

DistIterationResult referenceIterationKernel(const Graph& g,
                                             const std::vector<VertexId>& superOf,
                                             const std::vector<VertexId>& clusterOf,
                                             const std::vector<char>& sampled,
                                             const std::vector<char>* alive) {
  return reduceCandidates(buildCandidates(g, superOf, clusterOf, sampled, alive),
                          sampled);
}

}  // namespace mpcspan
