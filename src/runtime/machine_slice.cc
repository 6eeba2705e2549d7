#include "runtime/machine_slice.hpp"

#include <stdexcept>
#include <utility>

namespace mpcspan::runtime {

MachineSlice::MachineSlice(std::size_t numMachines, std::size_t lo,
                           std::size_t hi, MpcTopology topology,
                           ThreadPool& pool)
    : numMachines_(numMachines), lo_(lo), hi_(hi), topology_(topology),
      pool_(pool), store_(numMachines) {
  inboxes_[cur_].first.assign(hi - lo + 1, 0);
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
    ker.step(ctx(i, args), round.outboxes[i]);
  });
  round.inbound.assign(numMachines_, 0);
  for (const WordRows& outbox : round.outboxes)
    for (const WordRows::Row& row : outbox.rows()) {
      if (row.peer >= numMachines_)
        throw std::invalid_argument("RoundEngine: message to unknown machine");
      round.inbound[row.peer] += row.len;
    }
  round.words = topology_.validateSources(round.outboxes, lo_);
  return round;
}

void MachineSlice::install(std::vector<WordRows> projected) {
  // A counting sort of the rows to this range by destination: sources
  // ascending, each in send order — the delivery order on every backend.
  Inboxes& next = inboxes_[1 - cur_];
  next.storage = std::move(projected);
  std::vector<std::size_t>& first = next.first;
  first.assign(hi_ - lo_ + 1, 0);
  for (const WordRows& rows : next.storage)
    for (const WordRows::Row& row : rows.rows())
      if (row.peer >= lo_ && row.peer < hi_) ++first[row.peer - lo_ + 1];
  for (std::size_t i = 1; i < first.size(); ++i) first[i] += first[i - 1];
  next.views.resize(first.back());
  std::vector<std::size_t> at(first.begin(), first.end() - 1);
  for (std::size_t src = 0; src < next.storage.size(); ++src)
    for (const RowView row : next.storage[src])
      if (row.peer >= lo_ && row.peer < hi_)
        next.views[at[row.peer - lo_]++] = {src, row.words};
}

std::span<const RowView> MachineSlice::inbox(std::size_t i) const {
  const Inboxes& cur = inboxes_[cur_];
  return std::span<const RowView>(cur.views)
      .subspan(cur.first[i], cur.first[i + 1] - cur.first[i]);
}

std::vector<WordRows> MachineSlice::snapshot() const {
  std::vector<WordRows> out(hi_ - lo_);
  for (std::size_t i = 0; i < out.size(); ++i)
    for (const RowView& row : inbox(i)) out[i].add(row.peer, row.words);
  return out;
}

void MachineSlice::commit() {
  cur_ = 1 - cur_;
  abort();
}

void MachineSlice::abort() {
  // A fresh buffer, not clear(): clearing would keep its memory allocated.
  inboxes_[1 - cur_] = Inboxes();
}

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
