// MachineSlice — the one executor of an MPC round, over machines [lo, hi).
//
// The MPC model ([KSV10/GSZ11/BKS13], mpc/simulator.hpp) has one kind of
// round: every machine computes on its inbox, then sends and receives at
// most S words. The in-process RoundEngine is one slice over [0, n); each
// resident shard worker (shard/worker_loop.hpp) is one slice over its
// shard's range, plus the section exchange, the merge and the verdict. Both
// backends run these kernel loops, checks and delivery pass, so they agree
// by construction. The slice owns its machines' memory: the kernel
// instances, the inboxes and the BlockStore blocks. A round is step(), then
// the receive budget (MpcTopology::validateInbound over every slice's summed
// inbound words), then install() and commit(), or abort().
//
// A round's words are copied at most once on their way from kernel to
// inbox: the outboxes the kernels fill become the inbox storage, and only a
// shard worker's cross-shard rows are copied, from the peer frame into the
// round's storage. Every row lives until the round that replaces its inbox
// commits.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "runtime/kernel.hpp"
#include "runtime/thread_pool.hpp"
#include "runtime/topology.hpp"
#include "runtime/types.hpp"

namespace mpcspan::runtime {

/// A slice's share of one round.
struct SliceRound {
  /// outboxes[i] = every message machine lo + i sends, in send order.
  std::vector<WordRows> outboxes;
  /// inbound[m] = words the slice sends to machine m (every m of the engine).
  std::vector<std::uint64_t> inbound;
  std::size_t words = 0;  // words the slice sends
};

class MachineSlice {
 public:
  /// `pool` must outlive the slice.
  MachineSlice(std::size_t numMachines, std::size_t lo, std::size_t hi,
               MpcTopology topology, ThreadPool& pool);

  std::size_t numKernels() const { return names_.size(); }
  /// Builds the globally registered kernel `name` under the next id. The id
  /// stays taken when construction throws (ids are append-only on every
  /// side); using it rebuilds, and fails again.
  void addKernel(std::string name);

  /// Steps every machine of the range. A destination outside the engine
  /// throws std::invalid_argument, checked before any send budget
  /// (CapacityError). Neither inbox buffer is touched.
  SliceRound step(std::size_t kernel, const std::vector<Word>& args);
  /// Installs a round into the back inbox buffer: projected[src] holds the
  /// rows every source of the engine sends (peer = destination), and the
  /// rows to this range become its inboxes in (src, send-position) order.
  /// The buffer keeps `projected` as the inboxes' storage, without a copy,
  /// until it is retired.
  void install(std::vector<WordRows> projected);
  /// The installed round becomes the resident inboxes, and the round it
  /// replaces is retired at once — its storage freed — so one round stays
  /// alive between rounds.
  void commit();
  /// Discards the installed round.
  void abort();

  /// Free phases: kernel.local / kernel.fetch on every machine of the range.
  void local(std::size_t kernel, const std::vector<Word>& args);
  std::vector<std::vector<Word>> fetch(std::size_t kernel,
                                       const std::vector<Word>& args);

  /// Machine lo + i's resident inbox; valid until the next commit.
  std::span<const RowView> inbox(std::size_t i) const;
  /// Copies of the resident inboxes; [i] is machine lo + i's.
  std::vector<WordRows> snapshot() const;
  /// The blocks the kernels see as ctx.store (only the range's are used).
  BlockStore& store() { return store_; }

 private:
  StepKernel& kernel(std::size_t id);
  KernelCtx ctx(std::size_t i, const std::vector<Word>& args) {
    return KernelCtx{lo_ + i, numMachines_, inbox(i), args, store_};
  }

  /// One inbox buffer: the round's rows and every local inbox's views into
  /// them. Machine lo + i's inbox is views[first[i], first[i + 1]).
  struct Inboxes {
    std::vector<WordRows> storage;
    std::vector<RowView> views;
    std::vector<std::size_t> first;
  };

  std::size_t numMachines_, lo_, hi_;
  MpcTopology topology_;
  ThreadPool& pool_;
  BlockStore store_;
  std::vector<std::string> names_;  // by kernel id
  std::vector<std::unique_ptr<StepKernel>> kernels_;
  // Readers see buffer cur_; a round is installed into the other one.
  Inboxes inboxes_[2];
  std::size_t cur_ = 0;
};

}  // namespace mpcspan::runtime
