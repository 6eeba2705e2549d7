// PRAM CRCW extension (Section 6, "PRAM" paragraph, and Section 1.3).
//
// The paper's MPC algorithms port to CRCW PRAM with the same depth up to a
// multiplicative O(log* n) factor coming from the hashing / semisorting /
// generalized-find-min primitives of [BS07], plus a new O(1)-depth merge
// primitive implemented union-find style: every cluster keeps a leader node
// and all members point at it, so merging redirects the smaller side's
// pointers in one parallel step.
//
// The PRAM is accounted, not simulated: this module provides the depth/work
// conversion for any SpannerResult (the O(1)-depth merge is one superstep of
// its ledger).
#pragma once

#include <cstddef>

#include "spanner/types.hpp"

namespace mpcspan {

/// Iterated logarithm (base 2); log*(n) = 0 for n <= 1.
int logStar(double n);

struct PramCost {
  long depth = 0;  // parallel time
  long work = 0;   // total operations (sum over processors)
};

/// Depth/work of executing `result` on a CRCW PRAM with n vertices and m
/// edges: depth = supersteps * Theta(log* n); work = Theta(m) per iteration
/// (every primitive touches each alive edge O(1) times) plus the output.
PramCost pramCostOf(const SpannerResult& result, std::size_t n, std::size_t m);

}  // namespace mpcspan
