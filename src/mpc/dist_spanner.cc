#include "mpc/dist_spanner.hpp"

#include <string>

#include "spanner/baswana_sen.hpp"
#include "spanner/engine.hpp"
#include "spanner/tradeoff.hpp"

namespace mpcspan {

namespace {

std::string describe(const MpcSimulator& sim) {
  return std::to_string(sim.numMachines()) + " machines x " +
         std::to_string(sim.wordsPerMachine()) + " words, " +
         std::to_string(sim.numShards()) + " shard(s)" +
         (sim.numShards() == 1 ? "" : " (resident workers, tcp mesh)");
}

SpannerResult runDistSchedule(MpcSimulator& sim, const Graph& g,
                              const char* algorithm, std::uint32_t k,
                              std::uint32_t t, std::uint64_t seed,
                              const std::vector<EpochSpec>& schedule) {
  if (schedule.empty() || g.numVertices() == 0) {
    SpannerResult out = identitySpanner(g, algorithm);
    out.t = t;
    return out;
  }
  const std::size_t startRounds = sim.rounds();
  SpannerResult out = ClusterEngine(g, k, {.seed = seed, .sim = &sim}).run(schedule);
  out.algorithm = algorithm;
  out.t = t;
  out.simulatorRounds = sim.rounds() - startRounds;
  out.wordsMoved = sim.totalWordsSent();
  out.simulator = describe(sim);
  return out;
}

}  // namespace

SpannerResult buildDistributedBaswanaSen(MpcSimulator& sim, const Graph& g,
                                         std::uint32_t k, std::uint64_t seed) {
  return runDistSchedule(sim, g, "dist-baswana-sen", k, k, seed,
                         baswanaSenSchedule(g.numVertices(), k));
}

SpannerResult buildDistributedTradeoff(MpcSimulator& sim, const Graph& g,
                                       std::uint32_t k, std::uint32_t t,
                                       std::uint64_t seed) {
  t = tradeoffIterations(k, t);
  return runDistSchedule(sim, g, "dist-tradeoff", k, t, seed,
                         tradeoffSchedule(g.numVertices(), k, t));
}

}  // namespace mpcspan
