#include "pram/pram.hpp"

#include <algorithm>
#include <cmath>

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

}  // namespace mpcspan
