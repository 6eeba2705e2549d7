#include "runtime/topology.hpp"

#include <stdexcept>
#include <string>

namespace mpcspan::runtime {

std::size_t MpcTopology::validate(
    std::size_t numMachines,
    const std::vector<std::vector<Message>>& outboxes) const {
  std::vector<std::uint64_t> received(numMachines, 0);
  for (const std::vector<Message>& outbox : outboxes)
    for (const Message& msg : outbox) {
      if (msg.dst >= numMachines)
        throw std::invalid_argument("RoundEngine: message to unknown machine");
      received[msg.dst] += msg.payload.size();
    }
  const std::size_t words = validateSources(outboxes, 0);
  validateInbound(received);
  return words;
}

std::size_t MpcTopology::validateSources(
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
    const std::vector<std::uint64_t>& received) const {
  for (std::size_t m = 0; m < received.size(); ++m)
    if (received[m] > wordsPerMachine_)
      throw CapacityError("machine " + std::to_string(m) + " receives " +
                          std::to_string(received[m]) + " words > capacity " +
                          std::to_string(wordsPerMachine_));
}

}  // namespace mpcspan::runtime
