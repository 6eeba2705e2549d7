#include "runtime/topology.hpp"

#include <stdexcept>
#include <string>

namespace mpcspan::runtime {

std::size_t MpcTopology::validateSlice(
    std::size_t numMachines, const std::vector<std::vector<Message>>& outboxes,
    std::size_t begin, std::size_t end) const {
  // Send budgets are attributable to sources, receive budgets to
  // destinations; a slice owns both sides for its machine range, so scanning
  // the full round's outboxes once suffices for any [begin, end).
  std::vector<std::size_t> sent(numMachines, 0);
  std::vector<std::size_t> received(numMachines, 0);
  std::size_t sliceWords = 0;
  for (std::size_t src = 0; src < outboxes.size(); ++src) {
    for (const Message& msg : outboxes[src]) {
      // The full-round scan sees sources outside [begin, end) whose
      // destinations no caller has vetted yet — check before indexing.
      if (msg.dst >= numMachines)
        throw std::invalid_argument("RoundEngine: message to unknown machine");
      sent[src] += msg.payload.size();
      received[msg.dst] += msg.payload.size();
      if (src >= begin && src < end) sliceWords += msg.payload.size();
    }
  }
  for (std::size_t i = begin; i < end; ++i) {
    if (sent[i] > wordsPerMachine_)
      throw CapacityError("machine " + std::to_string(i) + " sends " +
                          std::to_string(sent[i]) + " words > capacity " +
                          std::to_string(wordsPerMachine_));
    if (received[i] > wordsPerMachine_)
      throw CapacityError("machine " + std::to_string(i) + " receives " +
                          std::to_string(received[i]) + " words > capacity " +
                          std::to_string(wordsPerMachine_));
  }
  return sliceWords;
}

std::size_t CliqueTopology::validateSlice(
    std::size_t numMachines, const std::vector<std::vector<Message>>& outboxes,
    std::size_t begin, std::size_t end) const {
  // Every clique constraint (one single-word message per ordered pair) is
  // attributable to the source, so a slice only scans its own sources.
  std::size_t sliceWords = 0;
  std::vector<char> usedRow;  // lazily sized per source
  for (std::size_t src = begin; src < end && src < outboxes.size(); ++src) {
    if (outboxes[src].empty()) continue;
    usedRow.assign(numMachines, 0);
    for (const Message& msg : outboxes[src]) {
      if (msg.payload.size() != 1)
        throw CapacityError(
            "CongestedClique: a pair carries exactly one word per round, got " +
            std::to_string(msg.payload.size()));
      if (usedRow[msg.dst])
        throw CapacityError("CongestedClique: pair (" + std::to_string(src) +
                            "," + std::to_string(msg.dst) +
                            ") used twice in one round");
      usedRow[msg.dst] = 1;
      ++sliceWords;
    }
  }
  return sliceWords;
}

std::size_t PramTopology::validateSlice(
    std::size_t /*numMachines*/,
    const std::vector<std::vector<Message>>& outboxes, std::size_t begin,
    std::size_t end) const {
  // Single-word writes are a source-side constraint.
  std::size_t sliceWords = 0;
  for (std::size_t src = begin; src < end && src < outboxes.size(); ++src)
    for (const Message& msg : outboxes[src]) {
      if (msg.payload.size() != 1)
        throw CapacityError("PRAM: a memory cell holds one word, write of " +
                            std::to_string(msg.payload.size()) + " words");
      ++sliceWords;
    }
  return sliceWords;
}

std::size_t MpcTopology::validateSources(
    std::size_t /*numMachines*/,
    const std::vector<std::vector<Message>>& sliceOutboxes,
    std::size_t begin) const {
  std::size_t sliceWords = 0;
  for (std::size_t i = 0; i < sliceOutboxes.size(); ++i) {
    std::size_t sent = 0;
    for (const Message& msg : sliceOutboxes[i]) sent += msg.payload.size();
    if (sent > wordsPerMachine_)
      throw CapacityError("machine " + std::to_string(begin + i) + " sends " +
                          std::to_string(sent) + " words > capacity " +
                          std::to_string(wordsPerMachine_));
    sliceWords += sent;
  }
  return sliceWords;
}

void MpcTopology::validateInbound(
    std::size_t numMachines, const std::vector<std::uint64_t>& received) const {
  for (std::size_t m = 0; m < numMachines && m < received.size(); ++m)
    if (received[m] > wordsPerMachine_)
      throw CapacityError("machine " + std::to_string(m) + " receives " +
                          std::to_string(received[m]) + " words > capacity " +
                          std::to_string(wordsPerMachine_));
}

std::size_t CliqueTopology::validateSources(
    std::size_t numMachines,
    const std::vector<std::vector<Message>>& sliceOutboxes,
    std::size_t begin) const {
  // Identical checks to validateSlice — every clique constraint is
  // already attributable to the source.
  std::size_t sliceWords = 0;
  std::vector<char> usedRow;
  for (std::size_t i = 0; i < sliceOutboxes.size(); ++i) {
    if (sliceOutboxes[i].empty()) continue;
    usedRow.assign(numMachines, 0);
    for (const Message& msg : sliceOutboxes[i]) {
      if (msg.payload.size() != 1)
        throw CapacityError(
            "CongestedClique: a pair carries exactly one word per round, got " +
            std::to_string(msg.payload.size()));
      if (usedRow[msg.dst])
        throw CapacityError("CongestedClique: pair (" +
                            std::to_string(begin + i) + "," +
                            std::to_string(msg.dst) +
                            ") used twice in one round");
      usedRow[msg.dst] = 1;
      ++sliceWords;
    }
  }
  return sliceWords;
}

std::size_t PramTopology::validateSources(
    std::size_t /*numMachines*/,
    const std::vector<std::vector<Message>>& sliceOutboxes,
    std::size_t /*begin*/) const {
  std::size_t sliceWords = 0;
  for (const std::vector<Message>& out : sliceOutboxes)
    for (const Message& msg : out) {
      if (msg.payload.size() != 1)
        throw CapacityError("PRAM: a memory cell holds one word, write of " +
                            std::to_string(msg.payload.size()) + " words");
      ++sliceWords;
    }
  return sliceWords;
}

std::unique_ptr<Topology> makeWireTopology(std::uint8_t kind,
                                           std::uint64_t param) {
  switch (static_cast<Topology::WireKind>(kind)) {
    case Topology::WireKind::kMpc:
      return std::make_unique<MpcTopology>(static_cast<std::size_t>(param));
    case Topology::WireKind::kClique:
      return std::make_unique<CliqueTopology>();
    case Topology::WireKind::kPram:
      return std::make_unique<PramTopology>();
    default:
      throw std::invalid_argument(
          "makeWireTopology: unknown topology kind byte " +
          std::to_string(static_cast<unsigned>(kind)));
  }
}

}  // namespace mpcspan::runtime
