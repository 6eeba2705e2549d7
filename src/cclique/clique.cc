#include "cclique/clique.hpp"

#include <memory>
#include <stdexcept>

namespace mpcspan {

namespace {

std::size_t checkedNodes(std::size_t n) {
  if (n == 0) throw std::invalid_argument("CongestedClique: n must be positive");
  return n;
}

}  // namespace

CongestedClique::CongestedClique(std::size_t n, std::size_t threads,
                                 std::size_t shards)
    : n_(checkedNodes(n)),
      engine_(runtime::EngineConfig{n, threads, shards},
              std::make_unique<runtime::CliqueTopology>()) {}

void CongestedClique::lenzenRoute(const std::vector<std::size_t>& sendPerNode,
                                  const std::vector<std::size_t>& recvPerNode) {
  if (sendPerNode.size() != n_ || recvPerNode.size() != n_)
    throw std::invalid_argument("CongestedClique: per-node vectors must have size n");
  std::size_t total = 0;
  for (std::size_t v = 0; v < n_; ++v) {
    if (sendPerNode[v] > n_)
      throw CapacityError("Lenzen routing: node sends more than n words");
    if (recvPerNode[v] > n_)
      throw CapacityError("Lenzen routing: node receives more than n words");
    total += sendPerNode[v];
  }
  engine_.chargeRounds(2);  // [Len13]: O(1) rounds, deterministically 2 phases
  engine_.chargeTraffic(total);
}

std::size_t CongestedClique::collectToAll(std::size_t totalWords) {
  // Every node must receive totalWords words at n-1 words per round, plus
  // one round to spread the payload evenly first.
  const std::size_t perRound = n_ > 1 ? n_ - 1 : 1;
  const std::size_t r = 1 + (totalWords + perRound - 1) / perRound;
  engine_.chargeRounds(r);
  engine_.chargeTraffic(totalWords * n_);
  return r;
}

}  // namespace mpcspan
