// Registered step kernels behind distSort / segmentedMinSorted /
// treeBroadcastWords — the worker-resident implementation of the
// Goodrich-style primitives.
//
// Each phase of the sort and the segmented min is a kernel phase selected
// by args[0], executed where the data lives: local sorting, sampling,
// splitter fan-out, the all-to-all route, and the segmented-min boundary
// fix-up all build their outboxes *inside the shard workers* against
// worker-owned DistVector blocks (runtime::BlockStore) — the coordinator
// only drives the phase schedule. The broadcast kernel runs one fan round
// of the same schedule as the splitter fan-out per step. The phases mirror
// the former coordinator-driven primitives bit for bit (same sampling
// hashes, splitter picks, broadcast schedule, partition bounds, fix-up
// resolution), so rounds, ledger words, and final block contents are
// unchanged (tests/test_golden.cc freezes them) and identical across 1/N
// shards × 1/N threads.
//
// The sort and seg-min kernels are type-parameterized on the item and its
// stateless comparators; every kernel registers itself in the
// process-global kernel registry at static initialization
// (GlobalKernelRegistrar), so a resident worker can construct it by name no
// matter when the engine first uses it.
#pragma once

#include <algorithm>
#include <cstring>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <typeinfo>
#include <vector>

#include "runtime/pack.hpp"
#include "runtime/kernel.hpp"
#include "runtime/simd.hpp"

namespace mpcspan {

/// Phase tags (args[0]) of the primitive kernels. args[1] is the DistVector
/// block handle for the phases that touch it.
constexpr Word kSortPhaseSortLocal = 1;   // local: sort the block
constexpr Word kSortPhaseSample = 2;      // round: samples -> machine 0
constexpr Word kSortPhasePickAndFan = 3;  // round: pick splitters, fan round 1
constexpr Word kSortPhaseFanForward = 4;  // round: broadcast fan round r > 1
constexpr Word kSortPhaseRoute = 5;       // round: all-to-all partition route
constexpr Word kSortPhaseMergeRoute = 6;  // local: merge the routed runs

constexpr Word kSegPhaseReduce = 1;    // local: per-key reduce of the block
constexpr Word kSegPhaseBoundary = 2;  // round: first/last records -> 0
constexpr Word kSegPhaseFix = 3;       // round: machine 0 resolves runs
constexpr Word kSegPhaseApply = 4;     // local: apply fix-ups

namespace detail {

/// Flattens a machine's resident inbox into one word vector: the payloads
/// concatenated in delivery (sender) order.
inline std::vector<Word> flatInbox(const runtime::KernelCtx& ctx) {
  std::size_t total = 0;
  for (const runtime::Delivery& d : ctx.inbox) total += d.payload.size();
  std::vector<Word> flat;
  flat.reserve(total);
  for (const runtime::Delivery& d : ctx.inbox)
    flat.insert(flat.end(), d.payload.begin(), d.payload.end());
  return flat;
}

/// Reads one item out of a packed block without unpacking the rest (items
/// occupy fixed wordsPerItem<T>() cells). Works on any contiguous word
/// container (std::vector<Word>, the arena-backed runtime::WordBuf).
template <typename T, typename Words>
T itemAt(const Words& block, std::size_t pos) {
  T item;
  std::memcpy(&item, block.data() + pos * wordsPerItem<T>(), sizeof(T));
  return item;
}

/// Opt-in comparator contract: `static constexpr std::size_t
/// kPackedKeyWord` on a comparator promises that it orders items
/// *primarily* by that unsigned word of the packed cell, ascending (key
/// ties may be broken arbitrarily). Kernels then run flat key passes
/// (runtime/simd.hpp) over the packed block instead of per-item memcpy
/// probes, falling back to the full comparator only inside equal-key
/// runs. std::less<> over single-word unsigned items makes the same
/// promise by definition.
template <typename T, typename Cmp, typename = void>
struct PackedKeyWord {
  static constexpr bool kAvailable =
      std::is_same_v<T, Word> && std::is_same_v<Cmp, std::less<>>;
  static constexpr std::size_t value = 0;
};
template <typename T, typename Cmp>
struct PackedKeyWord<T, Cmp, std::void_t<decltype(Cmp::kPackedKeyWord)>> {
  static constexpr bool kAvailable = true;
  static constexpr std::size_t value = Cmp::kPackedKeyWord;
};

}  // namespace detail

/// The B-ary fan schedule of the Lemma 6.1 broadcast, shared by distSort's
/// splitter fan-out and treeBroadcastWords. The holders are the machine
/// prefix [0, holders); holder m sends one copy to each of the (at most)
/// `branch` consecutive machines from holders + m * branch, and the prefix
/// then grows to fanNextHolders(). `branch` is the largest B whose copies
/// fit one holder's per-round send budget (B = 1 degrades to doubling,
/// still O(log p) rounds).
inline std::size_t fanBranch(std::size_t wordsPerMachine,
                             std::size_t copyWords) {
  return std::max<std::size_t>(
      1, wordsPerMachine / std::max<std::size_t>(1, copyWords));
}

inline std::size_t fanNextHolders(std::size_t p, std::size_t holders,
                                  std::size_t branch) {
  return std::min(p, holders + holders * branch);
}

/// Machine `machine`'s targets [first, last) in the fan round that starts
/// with `holders` holders (empty for non-holders).
struct FanTargets {
  std::size_t first, last;
};
inline FanTargets fanTargets(std::size_t p, std::size_t holders,
                             std::size_t branch, std::size_t machine) {
  const std::size_t end = fanNextHolders(p, holders, branch);
  if (machine >= holders) return {end, end};
  const std::size_t first = std::min(end, holders + machine * branch);
  return {first, std::min(end, first + branch)};
}

/// Distributed sample sort (see distSort in primitives.hpp for the driver
/// and the round schedule). Per-machine persistent state: the splitter set,
/// absorbed from the broadcast by every machine.
template <typename T, typename Cmp>
class SortKernel final : public runtime::StepKernel {
 public:
  static std::string kernelName() {
    return std::string("mpcspan.distsort.") + typeid(SortKernel).name();
  }

  std::vector<runtime::Message> step(const runtime::KernelCtx& ctx) override {
    ensureState(ctx);
    switch (ctx.args.at(0)) {
      case kSortPhaseSample:
        return sample(ctx);
      case kSortPhasePickAndFan:
        return pickAndFan(ctx);
      case kSortPhaseFanForward:
        return fanForward(ctx);
      case kSortPhaseRoute:
        return route(ctx);
      default:
        throw std::invalid_argument("SortKernel: unknown step phase");
    }
  }

  void local(const runtime::KernelCtx& ctx) override {
    ensureState(ctx);
    switch (ctx.args.at(0)) {
      case kSortPhaseSortLocal: {
        runtime::WordBuf& block = ctx.store.block(ctx.args.at(1), ctx.machine);
        std::vector<T> items = unpackItems<T>(block);
        std::sort(items.begin(), items.end(), cmp_);
        block = packItems(items.data(), items.size());
        splitters_[ctx.machine].clear();  // a fresh sort forgets old splitters
        break;
      }
      case kSortPhaseMergeRoute: {
        std::vector<T> items = unpackItems<T>(detail::flatInbox(ctx));
        std::sort(items.begin(), items.end(), cmp_);
        ctx.store.block(ctx.args.at(1), ctx.machine) =
            packItems(items.data(), items.size());
        break;
      }
      default:
        throw std::invalid_argument("SortKernel: unknown local phase");
    }
  }

 private:
  void ensureState(const runtime::KernelCtx& ctx) {
    std::call_once(sized_, [&] { splitters_.resize(ctx.numMachines); });
  }

  std::vector<runtime::Message> sample(const runtime::KernelCtx& ctx) {
    const std::size_t perMachineSamples = ctx.args.at(2);
    const runtime::WordBuf& block = ctx.store.block(ctx.args.at(1), ctx.machine);
    const std::size_t count = block.size() / wordsPerItem<T>();
    if (count == 0) return {};
    // Uniform random positions, seeded per machine: deterministic per-shard
    // quantile positions would pool into only `take` distinct quantile
    // levels across machines — far too coarse when numMachines > take —
    // and including shard extremes biases the splitters. Items are read in
    // place — no point unpacking the whole block for <= 32 picks.
    std::vector<T> samples;
    const std::size_t take = std::min(perMachineSamples, count);
    samples.reserve(take);
    std::uint64_t h =
        0x9e3779b97f4a7c15ULL ^ (ctx.machine * 0xbf58476d1ce4e5b9ULL);
    for (std::size_t i = 0; i < take; ++i) {
      h = h * 6364136223846793005ULL + 1442695040888963407ULL;
      samples.push_back(detail::itemAt<T>(block, (h >> 33) % count));
    }
    std::sort(samples.begin(), samples.end(), cmp_);
    return {{0, packItems(samples.data(), samples.size())}};
  }

  std::vector<runtime::Message> pickAndFan(const runtime::KernelCtx& ctx) {
    if (ctx.machine != 0) return {};
    std::vector<T> samples = unpackItems<T>(detail::flatInbox(ctx));
    std::sort(samples.begin(), samples.end(), cmp_);
    const std::size_t p = ctx.numMachines;
    std::vector<T>& splitters = splitters_[0];
    splitters.clear();
    for (std::size_t i = 1; i < p; ++i) {
      if (samples.empty()) break;
      splitters.push_back(
          samples[std::min(samples.size() - 1, i * samples.size() / p)]);
    }
    return fanOut(ctx, /*holders=*/1, /*branch=*/ctx.args.at(2));
  }

  std::vector<runtime::Message> fanForward(const runtime::KernelCtx& ctx) {
    absorbSplitters(ctx);
    return fanOut(ctx, /*holders=*/ctx.args.at(2), /*branch=*/ctx.args.at(3));
  }

  /// One fan round of the splitter broadcast (the fanTargets schedule).
  std::vector<runtime::Message> fanOut(const runtime::KernelCtx& ctx,
                                       std::size_t holders,
                                       std::size_t branch) {
    const FanTargets t =
        fanTargets(ctx.numMachines, holders, branch, ctx.machine);
    std::vector<runtime::Message> out;
    if (t.first == t.last) return out;
    const std::vector<Word> payload = packItems(splitters_[ctx.machine].data(),
                                                splitters_[ctx.machine].size());
    out.reserve(t.last - t.first);
    for (std::size_t d = t.first; d < t.last; ++d) out.push_back({d, payload});
    return out;
  }

  /// Broadcast targets store the splitters the round after receipt (their
  /// resident inbox is replaced every round, and every machine steps every
  /// round, so the hand-off can never be missed). Machine 0 set its own set
  /// in pickAndFan; splitters are never legitimately empty here (p >= 2 and
  /// a non-empty vector guarantee at least one sample, hence p-1 picks).
  void absorbSplitters(const runtime::KernelCtx& ctx) {
    std::vector<T>& mine = splitters_[ctx.machine];
    if (!mine.empty() || ctx.inbox.empty()) return;
    const runtime::Payload& payload = ctx.inbox.front().payload;
    const std::vector<Word> words(payload.begin(), payload.end());
    mine = unpackItems<T>(words);
  }

  std::vector<runtime::Message> route(const runtime::KernelCtx& ctx) {
    absorbSplitters(ctx);
    const std::vector<T>& splitters = splitters_[ctx.machine];
    const runtime::WordBuf& block = ctx.store.block(ctx.args.at(1), ctx.machine);
    constexpr std::size_t wpi = wordsPerItem<T>();
    const std::size_t count = block.size() / wpi;
    // The block is sorted and packed in fixed-width cells, so each run is a
    // contiguous word slice: find the boundaries in place and ship the
    // slices without an unpack/repack round trip. When the comparator
    // exposes its packed key word, the keys come out in one vectorized
    // gather and each bound is a flat-array scan; the full comparator is
    // only consulted inside the splitter's equal-key run (it may break key
    // ties). Both paths compute the same upper bound.
    constexpr bool kFlatKeys = detail::PackedKeyWord<T, Cmp>::kAvailable;
    std::vector<Word> keys;
    if constexpr (kFlatKeys) {
      keys.resize(count);
      runtime::simd::gatherStride(block.data(),
                                  detail::PackedKeyWord<T, Cmp>::value, wpi,
                                  count, keys.data());
    }
    std::vector<runtime::Message> out;
    std::size_t begin = 0;
    for (std::size_t j = 0; j <= splitters.size(); ++j) {
      std::size_t end;
      if (j == splitters.size()) {
        end = count;
      } else {
        // upper_bound: first index whose item compares after splitters[j].
        std::size_t lo = begin, hi = count;
        if constexpr (kFlatKeys) {
          Word cell[wpi] = {};
          std::memcpy(cell, &splitters[j], sizeof(T));
          const Word sk = cell[detail::PackedKeyWord<T, Cmp>::value];
          lo = runtime::simd::lowerBoundFrom(keys.data(), begin, count, sk);
          hi = runtime::simd::upperBoundFrom(keys.data(), lo, count, sk);
        }
        while (lo < hi) {
          const std::size_t mid = lo + (hi - lo) / 2;
          if (cmp_(splitters[j], detail::itemAt<T>(block, mid)))
            hi = mid;
          else
            lo = mid + 1;
        }
        end = lo;
      }
      if (end > begin)
        out.push_back(
            {j, std::vector<Word>(
                    block.begin() + static_cast<std::ptrdiff_t>(begin * wpi),
                    block.begin() + static_cast<std::ptrdiff_t>(end * wpi))});
      begin = end;
    }
    return out;
  }

  Cmp cmp_{};
  std::once_flag sized_;
  std::vector<std::vector<T>> splitters_;  // per machine
};

/// Per-key minimum over key-sorted blocks (see segmentedMinSorted in
/// primitives.hpp). Per-machine persistent state: the locally reduced
/// sequence, later corrected by machine 0's boundary fix-ups and collected
/// via fetch().
template <typename T, typename KeyOf, typename Better>
class SegMinKernel final : public runtime::StepKernel {
 public:
  static std::string kernelName() {
    return std::string("mpcspan.segmin.") + typeid(SegMinKernel).name();
  }

  std::vector<runtime::Message> step(const runtime::KernelCtx& ctx) override {
    ensureState(ctx);
    switch (ctx.args.at(0)) {
      case kSegPhaseBoundary:
        return boundary(ctx);
      case kSegPhaseFix:
        return fix(ctx);
      default:
        throw std::invalid_argument("SegMinKernel: unknown step phase");
    }
  }

  void local(const runtime::KernelCtx& ctx) override {
    ensureState(ctx);
    switch (ctx.args.at(0)) {
      case kSegPhaseReduce: {
        // Local reduce (free): one representative per key per machine.
        // Restructured as flat passes over the contiguous block: extract
        // every key (keyOf_ is a stateless inlined functor, so this loop
        // autovectorizes), find run starts with the vectorized
        // neighbour-compare, then take each run's minimum — instead of a
        // branch-per-item append loop.
        std::vector<T>& red = reduced_[ctx.machine];
        red.clear();
        const std::vector<T> items =
            unpackItems<T>(ctx.store.block(ctx.args.at(1), ctx.machine));
        std::vector<Word> keys(items.size());
        for (std::size_t i = 0; i < items.size(); ++i) keys[i] = keyOf_(items[i]);
        std::vector<std::uint32_t> starts;
        runtime::simd::runStarts(keys.data(), keys.size(), starts);
        red.reserve(starts.size());
        for (std::size_t r = 0; r < starts.size(); ++r) {
          const std::size_t b = starts[r];
          const std::size_t e =
              r + 1 < starts.size() ? starts[r + 1] : items.size();
          T best = items[b];
          for (std::size_t i = b + 1; i < e; ++i)
            if (better_(items[i], best)) best = items[i];
          red.push_back(best);
        }
        break;
      }
      case kSegPhaseApply:
        apply(ctx);
        break;
      default:
        throw std::invalid_argument("SegMinKernel: unknown local phase");
    }
  }

  std::vector<Word> fetch(const runtime::KernelCtx& ctx) override {
    ensureState(ctx);
    const std::vector<T>& red = reduced_[ctx.machine];
    return packItems(red.data(), red.size());
  }

 private:
  void ensureState(const runtime::KernelCtx& ctx) {
    std::call_once(sized_, [&] { reduced_.resize(ctx.numMachines); });
  }

  std::vector<runtime::Message> boundary(const runtime::KernelCtx& ctx) {
    const std::vector<T>& red = reduced_[ctx.machine];
    if (red.empty()) return {};
    std::vector<T> pair{red.front(), red.back()};
    std::vector<Word> payload = packItems(pair.data(), pair.size());
    payload.push_back(ctx.machine);
    return {{0, std::move(payload)}};
  }

  std::vector<runtime::Message> fix(const runtime::KernelCtx& ctx) {
    if (ctx.machine != 0) return {};
    const std::size_t rec = 2 * wordsPerItem<T>() + 1;
    const std::vector<Word> raw = detail::flatInbox(ctx);

    struct Boundary {
      std::size_t machine;
      T first, last;
    };
    std::vector<Boundary> bounds;
    for (std::size_t off = 0; off + rec <= raw.size(); off += rec) {
      Boundary b;
      std::memcpy(&b.first, raw.data() + off, sizeof(T));
      std::memcpy(&b.last, raw.data() + off + wordsPerItem<T>(), sizeof(T));
      b.machine = static_cast<std::size_t>(raw[off + rec - 1]);
      bounds.push_back(b);
    }
    std::sort(bounds.begin(), bounds.end(), [](const Boundary& a,
                                               const Boundary& b) {
      return a.machine < b.machine;
    });

    // Resolve key runs that span machine boundaries. Because the data is
    // key-sorted and the local reduce left one copy per key per machine, a
    // run over machines m0..mEnd consists of last[m0], first[m0+1], ...,
    // first[mEnd] (fully-covered middle machines have first == last).
    struct FixEntry {
      std::uint64_t key;
      T winner;
      bool keepHere;
    };
    std::vector<std::vector<FixEntry>> fixes(ctx.numMachines);
    std::size_t i = 0;
    while (i + 1 < bounds.size()) {
      const std::uint64_t key = keyOf_(bounds[i].last);
      if (keyOf_(bounds[i + 1].first) != key) {
        ++i;
        continue;
      }
      T winner = bounds[i].last;
      std::vector<std::size_t> members{i};
      std::size_t j = i + 1;
      while (j < bounds.size() && keyOf_(bounds[j].first) == key) {
        members.push_back(j);
        if (better_(bounds[j].first, winner)) winner = bounds[j].first;
        if (keyOf_(bounds[j].last) != key) break;  // run ends inside machine j
        ++j;
      }
      for (std::size_t t : members)
        fixes[bounds[t].machine].push_back({key, winner, t == i});
      i = members.back() == i ? i + 1 : members.back();
    }

    std::vector<runtime::Message> out;
    for (std::size_t m = 0; m < ctx.numMachines; ++m) {
      if (fixes[m].empty()) continue;
      std::vector<Word> payload;
      for (const FixEntry& f : fixes[m]) {
        payload.push_back(f.key);
        payload.push_back(f.keepHere ? 1 : 0);
        const std::vector<Word> w = packItems(&f.winner, 1);
        payload.insert(payload.end(), w.begin(), w.end());
      }
      out.push_back({m, std::move(payload)});
    }
    return out;
  }

  void apply(const runtime::KernelCtx& ctx) {
    // Apply fixes (local compute): the single local copy of the key is
    // replaced by the winner on exactly one machine and dropped elsewhere.
    // reduced_ inherits the block's order, and segmentedMinSorted's
    // contract is key-sorted (ascending) input with one representative per
    // key after the reduce — so the lookup is a binary search, not the
    // former linear scan per fix-up.
    const std::vector<Word> fw = detail::flatInbox(ctx);
    const std::size_t frec = 2 + wordsPerItem<T>();
    std::vector<T>& red = reduced_[ctx.machine];
    for (std::size_t off = 0; off + frec <= fw.size(); off += frec) {
      const std::uint64_t key = fw[off];
      const bool keep = fw[off + 1] != 0;
      T winner;
      std::memcpy(&winner, fw.data() + off + 2, sizeof(T));
      const auto it = std::lower_bound(
          red.begin(), red.end(), key,
          [this](const T& a, std::uint64_t k) { return keyOf_(a) < k; });
      if (it != red.end() && keyOf_(*it) == key) {
        if (keep)
          *it = winner;
        else
          red.erase(it);
      }
    }
  }

  KeyOf keyOf_{};
  Better better_{};
  std::once_flag sized_;
  std::vector<std::vector<T>> reduced_;  // per machine
};

/// treeBroadcastWords' kernel (see primitives.hpp): a payload fanned from
/// machine 0 down the fanTargets schedule. args = {block handle, holders,
/// branch}; machine 0 loads the payload from its block of the handle in
/// the first round. Per-machine persistent state: the copy each machine
/// holds, readable through fetch().
class BroadcastKernel final : public runtime::StepKernel {
 public:
  static std::string kernelName() { return "mpcspan.broadcast"; }

  std::vector<runtime::Message> step(const runtime::KernelCtx& ctx) override {
    ensureState(ctx);
    const std::size_t holders = ctx.args.at(1);
    std::vector<Word>& mine = held_[ctx.machine];
    if (holders > 1) {
      absorb(ctx);  // the previous fan round's targets
    } else if (ctx.machine == 0) {
      const runtime::WordBuf& block = ctx.store.block(ctx.args.at(0), 0);
      mine.assign(block.begin(), block.end());
    }
    const FanTargets t =
        fanTargets(ctx.numMachines, holders, ctx.args.at(2), ctx.machine);
    std::vector<runtime::Message> out;
    out.reserve(t.last - t.first);
    for (std::size_t d = t.first; d < t.last; ++d) out.push_back({d, mine});
    return out;
  }

  /// After the last fan round: its targets keep their copy.
  void local(const runtime::KernelCtx& ctx) override {
    ensureState(ctx);
    absorb(ctx);
  }

  std::vector<Word> fetch(const runtime::KernelCtx& ctx) override {
    ensureState(ctx);
    return held_[ctx.machine];
  }

 private:
  void ensureState(const runtime::KernelCtx& ctx) {
    std::call_once(sized_, [&] { held_.resize(ctx.numMachines); });
  }

  /// Every machine is a fan target exactly once, and its resident inbox is
  /// replaced every round, so a non-empty inbox is the copy it just got.
  void absorb(const runtime::KernelCtx& ctx) {
    if (ctx.inbox.empty()) return;
    const runtime::Payload& payload = ctx.inbox.front().payload;
    held_[ctx.machine].assign(payload.begin(), payload.end());
  }

  std::once_flag sized_;
  std::vector<std::vector<Word>> held_;  // per machine
};

}  // namespace mpcspan
