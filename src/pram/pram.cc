#include "pram/pram.hpp"

#include <cmath>
#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <utility>

namespace mpcspan {

int logStar(double n) {
  int count = 0;
  while (n > 1.0) {
    n = std::log2(n);
    ++count;
  }
  return count;
}

PramCost pramCostOf(const SpannerResult& result, std::size_t n, std::size_t m) {
  PramCost cost;
  const int ls = std::max(1, logStar(static_cast<double>(std::max<std::size_t>(n, 2))));
  cost.depth = result.cost.supersteps() * ls;
  // Each superstep's primitives (hashing, semisorting, find-min, merge)
  // perform O(1) operations per alive edge; the alive set only shrinks, so
  // m per iteration is an upper bound, plus writing the output.
  cost.work = static_cast<long>(result.iterations + result.epochs + 1) *
                  static_cast<long>(m) +
              static_cast<long>(result.edges.size());
  return cost;
}

LeaderForest::LeaderForest(std::size_t n)
    : leader_(n), members_(n), numSets_(n) {
  std::iota(leader_.begin(), leader_.end(), 0);
  for (std::uint32_t v = 0; v < n; ++v) members_[v] = {v};
}

bool LeaderForest::merge(std::uint32_t a, std::uint32_t b) {
  // Raw ids index leader_, so reject anything past the forest with a typed
  // error instead of reading out of bounds.
  if (a >= leader_.size() || b >= leader_.size())
    throw std::out_of_range("LeaderForest: element id out of range");
  std::uint32_t la = leader_[a];
  std::uint32_t lb = leader_[b];
  if (la == lb) return false;
  if (members_[la].size() < members_[lb].size()) std::swap(la, lb);
  // Redirect every member of the smaller set in one parallel step.
  for (std::uint32_t v : members_[lb]) leader_[v] = la;
  work_ += static_cast<long>(members_[lb].size());
  depth_ += 1;
  auto& big = members_[la];
  auto& small = members_[lb];
  big.insert(big.end(), small.begin(), small.end());
  small.clear();
  small.shrink_to_fit();
  --numSets_;
  return true;
}

}  // namespace mpcspan
