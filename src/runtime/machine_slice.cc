#include "runtime/machine_slice.hpp"

#include <stdexcept>
#include <utility>

namespace mpcspan::runtime {

MachineSlice::MachineSlice(std::size_t numMachines, std::size_t lo,
                           std::size_t hi, MpcTopology topology,
                           ThreadPool& pool)
    : numMachines_(numMachines), lo_(lo), hi_(hi), topology_(topology),
      pool_(pool), store_(numMachines) {
  inboxes_[0].resize(hi - lo);
  inboxes_[1].resize(hi - lo);
}

void MachineSlice::addKernel(std::string name) {
  names_.push_back(std::move(name));
  kernels_.emplace_back();
  kernel(names_.size() - 1);
}

StepKernel& MachineSlice::kernel(std::size_t id) {
  if (id >= kernels_.size())
    throw std::invalid_argument("RoundEngine: unknown kernel id");
  if (!kernels_[id]) kernels_[id] = makeGlobalKernel(names_[id]);
  return *kernels_[id];
}

SliceRound MachineSlice::step(std::size_t id, const std::vector<Word>& args) {
  StepKernel& ker = kernel(id);
  SliceRound round;
  round.outboxes.resize(hi_ - lo_);
  pool_.parallelFor(hi_ - lo_, [&](std::size_t i) {
    round.outboxes[i] = ker.step(ctx(i, args));
  });
  round.inbound.assign(numMachines_, 0);
  for (const std::vector<Message>& outbox : round.outboxes)
    for (const Message& msg : outbox) {
      if (msg.dst >= numMachines_)
        throw std::invalid_argument("RoundEngine: message to unknown machine");
      round.inbound[msg.dst] += msg.payload.size();
    }
  round.words = topology_.validateSources(round.outboxes, lo_);
  return round;
}

void MachineSlice::install(std::vector<std::vector<Message>> projected) {
  // Index pass: per local destination, its messages as (src, pos) in
  // ascending source order, each source in send order — the delivery order
  // on every backend.
  struct Ref {
    std::uint32_t src, pos;
  };
  std::vector<std::vector<Ref>> byDst(hi_ - lo_);
  for (std::size_t src = 0; src < projected.size(); ++src)
    for (std::size_t pos = 0; pos < projected[src].size(); ++pos) {
      const std::size_t d = projected[src][pos].dst;
      if (d >= lo_ && d < hi_)
        byDst[d - lo_].push_back({static_cast<std::uint32_t>(src),
                                  static_cast<std::uint32_t>(pos)});
    }
  // Each destination belongs to one loop index and each message to one
  // destination, so the payload moves are disjoint.
  std::vector<std::vector<Delivery>>& next = inboxes_[1 - cur_];
  pool_.parallelFor(hi_ - lo_, [&](std::size_t i) {
    next[i].reserve(byDst[i].size());
    for (const Ref& ref : byDst[i])
      next[i].push_back(
          {ref.src, std::move(projected[ref.src][ref.pos].payload)});
  });
}

void MachineSlice::clear(std::size_t buffer) {
  // A fresh vector, not assign(): assigning empty inboxes would keep each
  // one's Delivery array allocated.
  inboxes_[buffer] = std::vector<std::vector<Delivery>>(hi_ - lo_);
  arenas_[buffer].reset();
}

void MachineSlice::commit() {
  cur_ = 1 - cur_;
  clear(1 - cur_);
}

void MachineSlice::abort() { clear(1 - cur_); }

void MachineSlice::local(std::size_t id, const std::vector<Word>& args) {
  StepKernel& ker = kernel(id);
  pool_.parallelFor(hi_ - lo_, [&](std::size_t i) { ker.local(ctx(i, args)); });
}

std::vector<std::vector<Word>> MachineSlice::fetch(
    std::size_t id, const std::vector<Word>& args) {
  StepKernel& ker = kernel(id);
  std::vector<std::vector<Word>> out(hi_ - lo_);
  pool_.parallelFor(hi_ - lo_,
                    [&](std::size_t i) { out[i] = ker.fetch(ctx(i, args)); });
  return out;
}

}  // namespace mpcspan::runtime
