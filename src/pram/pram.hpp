// PRAM CRCW extension (Section 6, "PRAM" paragraph, and Section 1.3).
//
// The paper's MPC algorithms port to CRCW PRAM with the same depth up to a
// multiplicative O(log* n) factor coming from the hashing / semisorting /
// generalized-find-min primitives of [BS07], plus a new O(1)-depth merge
// primitive implemented union-find style: every cluster keeps a leader node
// and all members point at it, so merging redirects the smaller side's
// pointers in one parallel step.
//
// The PRAM is accounted, not simulated: this module provides (a) the
// depth/work conversion for any SpannerResult and (b) LeaderForest, a host
// leader-pointer structure with the depth/work accounting of the O(1)-depth
// merge.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

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

/// Leader-pointer cluster structure: the PRAM merge primitive.
/// Each element points at its set's leader; merge(a, b) redirects every
/// pointer of the smaller set in one parallel step (O(1) depth with
/// |smaller| processors; O(|smaller|) work). Queries are O(1) depth always
/// (a single pointer read — no path compression needed).
class LeaderForest {
 public:
  explicit LeaderForest(std::size_t n);

  std::uint32_t leader(std::uint32_t x) const { return leader_[x]; }
  bool sameSet(std::uint32_t a, std::uint32_t b) const {
    return leader_[a] == leader_[b];
  }
  std::size_t setSize(std::uint32_t x) const {
    return members_[leader_[x]].size();
  }
  std::size_t numSets() const { return numSets_; }

  /// Merges the sets of a and b (smaller into larger); returns false if
  /// already joined. Charges 1 depth and |smaller| work. Throws
  /// std::out_of_range when a or b is not an element of the forest.
  bool merge(std::uint32_t a, std::uint32_t b);

  /// Accounting of all merges so far.
  long depthCharged() const { return depth_; }
  long workCharged() const { return work_; }

 private:
  std::vector<std::uint32_t> leader_;
  std::vector<std::vector<std::uint32_t>> members_;
  std::size_t numSets_;
  long depth_ = 0;
  long work_ = 0;
};

}  // namespace mpcspan
