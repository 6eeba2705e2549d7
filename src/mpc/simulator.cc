#include "mpc/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace mpcspan {

namespace {

runtime::MpcTopology makeMpcTopology(const MpcConfig& cfg) {
  if (cfg.numMachines == 0 || cfg.wordsPerMachine == 0)
    throw std::invalid_argument("MpcSimulator: empty configuration");
  return runtime::MpcTopology(cfg.wordsPerMachine);
}

}  // namespace

MpcConfig MpcConfig::forInput(std::size_t inputWords, double gamma, double slack) {
  MpcConfig cfg;
  const std::size_t nw = std::max<std::size_t>(inputWords, 16);
  // The capacity the cluster must provide. Floating point appears exactly
  // once, to *define* the requirement; every machine count below is derived
  // from it with an integer ceiling, so numMachines * wordsPerMachine >=
  // need by construction — a double ceil() of the quotient can round to the
  // floor when slack * nw / S is within one ulp of an integer, silently
  // losing up to a machine's worth of capacity.
  const std::size_t need = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(slack * static_cast<double>(nw))));
  const auto machinesFor = [need](std::size_t wordsPerMachine) {
    return (need + wordsPerMachine - 1) / wordsPerMachine;
  };
  cfg.wordsPerMachine = std::max<std::size_t>(
      16, static_cast<std::size_t>(
              std::pow(static_cast<double>(nw), gamma)));
  cfg.numMachines = machinesFor(cfg.wordsPerMachine);
  // Coordinator-based O(1)-round primitives (one-level sample sort, prefix
  // scan, boundary fix-up) need every machine to hold O(numMachines) words
  // (splitter sets, per-machine counters). Enforce S >= 64 * machines (with
  // headroom for sample-sort skew); for gamma < 1/2 this raises the
  // effective local memory — the multi-level recursive variants that avoid
  // it cost the same O(1/gamma) rounds, so round accounting is unaffected.
  if (cfg.wordsPerMachine < 64 * cfg.numMachines) {
    cfg.wordsPerMachine = std::max<std::size_t>(
        16, static_cast<std::size_t>(
                std::ceil(std::sqrt(64.0 * static_cast<double>(need)))));
    cfg.numMachines = machinesFor(cfg.wordsPerMachine);
    // The integer ceilings can leave S a hair under 64 * machines; growing
    // S only shrinks the machine count, so this settles in O(1) steps.
    while (cfg.wordsPerMachine < 64 * cfg.numMachines) {
      cfg.wordsPerMachine = 64 * cfg.numMachines;
      cfg.numMachines = machinesFor(cfg.wordsPerMachine);
    }
  }
  return cfg;
}

MpcSimulator::MpcSimulator(MpcConfig cfg, std::size_t threads,
                           std::size_t shards)
    : cfg_(cfg),
      engine_(runtime::EngineConfig{cfg.numMachines, threads, shards},
              makeMpcTopology(cfg)) {}

}  // namespace mpcspan
