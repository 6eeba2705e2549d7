#include "runtime/topology.hpp"

#include <stdexcept>
#include <string>

namespace mpcspan::runtime {

std::size_t MpcTopology::validateSources(
    const std::vector<WordRows>& sliceOutboxes, std::size_t begin) const {
  std::size_t sliceWords = 0;
  for (std::size_t i = 0; i < sliceOutboxes.size(); ++i) {
    const std::size_t sent = sliceOutboxes[i].wordCount();
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
