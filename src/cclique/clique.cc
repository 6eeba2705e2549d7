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
                                 std::size_t shards,
                                 runtime::Transport transport)
    : n_(checkedNodes(n)),
      engine_(runtime::EngineConfig{n, threads, shards, transport},
              std::make_unique<runtime::CliqueTopology>()) {}

std::vector<std::vector<std::pair<VertexId, Word>>> CongestedClique::directRound(
    const std::vector<Msg>& msgs) {
  std::vector<std::vector<runtime::Message>> outboxes(n_);
  std::vector<std::size_t> perSrc(n_, 0);
  for (const Msg& m : msgs) {
    if (m.src >= n_ || m.dst >= n_)
      throw std::invalid_argument("CongestedClique: node id out of range");
    if (m.payload.empty())
      throw std::invalid_argument("CongestedClique: empty message payload");
    ++perSrc[m.src];
  }
  for (std::size_t v = 0; v < n_; ++v) outboxes[v].reserve(perSrc[v]);
  for (const Msg& m : msgs) outboxes[m.src].push_back({m.dst, m.payload});
  const std::vector<std::vector<runtime::Delivery>> delivered =
      engine_.exchange(std::move(outboxes));

  // Every payload passed the input check and the topology's one-word rule,
  // so a zero-word delivery can only mean a stripped/corrupt wire frame —
  // reject it rather than read a word that was never sent.
  for (const auto& deliveries : delivered)
    for (const runtime::Delivery& d : deliveries)
      if (d.payload.empty())
        throw std::runtime_error("CongestedClique: empty payload delivered");
  std::vector<std::vector<std::pair<VertexId, Word>>> inbox(n_);
  engine_.parallelFor(n_, [&](std::size_t v) {
    inbox[v].reserve(delivered[v].size());
    for (const runtime::Delivery& d : delivered[v])
      inbox[v].emplace_back(static_cast<VertexId>(d.src), d.payload.front());
  });
  return inbox;
}

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
