#include "runtime/round_engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "runtime/shard/sharded_engine.hpp"

namespace mpcspan::runtime {

RoundEngine::RoundEngine(EngineConfig cfg, MpcTopology topology)
    : numMachines_(cfg.numMachines),
      topology_(topology),
      pool_(cfg.threads) {
  if (numMachines_ == 0)
    throw std::invalid_argument("RoundEngine: numMachines must be positive");

  // Backend selection (the engine factory): 1 shard runs every machine in
  // one in-process MachineSlice; more partitions the machines over resident
  // worker processes, which start here — splitting the configured lane
  // count across them. The coordinator keeps its full-width pool_ anyway —
  // sharded rounds bypass it, but consumers run their host-side compute
  // through pool()/parallelFor() between rounds, and ThreadPool spawns its
  // lanes lazily on first use, so the workers fork before any lane exists.
  std::size_t shards =
      cfg.shards == 0 ? shard::ShardedEngine::defaultShards() : cfg.shards;
  shards = std::min(shards, numMachines_);
  if (shards > 1) {
    const std::size_t perShard =
        std::max<std::size_t>(1, pool_.numThreads() / shards);
    shard_ = std::make_unique<shard::ShardedEngine>(numMachines_, shards,
                                                    perShard, topology_);
  } else {
    slice_ = std::make_unique<MachineSlice>(numMachines_, 0, numMachines_,
                                            topology_, pool_);
  }
}

RoundEngine::~RoundEngine() = default;

std::size_t RoundEngine::numShards() const {
  return shard_ ? shard_->numShards() : 1;
}

// --- Registered kernels. ---

KernelId RoundEngine::registerKernel(std::string name) {
  if (findKernel(name).valid())
    throw std::invalid_argument("registerKernel: name already registered: " +
                                name);
  if (!findGlobalKernel(name))
    throw std::invalid_argument("registerKernel: '" + name +
                                "' is not globally registered");
  const KernelId id{kernels_.size()};
  kernels_.push_back(std::move(name));
  try {
    // The slice builds its instance; every worker resolves the name, builds
    // its own and acks.
    if (slice_)
      slice_->addKernel(kernels_.back());
    else
      shard_->announceKernel(id.index, kernels_.back());
  } catch (...) {
    // Ids are append-only on every side (the instance may exist in some
    // workers), so the dead slot stays but its name is tombstoned: a retry
    // registers the name under a fresh id, and nothing steps the dead one.
    kernels_[id.index] = "!failed " + kernels_[id.index];
    throw;
  }
  return id;
}

KernelId RoundEngine::findKernel(const std::string& name) const {
  for (std::size_t i = 0; i < kernels_.size(); ++i)
    if (kernels_[i] == name) return KernelId{i};
  return KernelId{};
}

void RoundEngine::step(KernelId kernel, std::vector<Word> args) {
  checkKernel(kernel);
  std::size_t roundWords = 0;
  if (shard_) {
    shard_->stepKernel(kernel.index, args, roundWords);
  } else {
    // Everything is checked before anything moves, so a rejected round
    // leaves the inboxes and the ledger untouched.
    SliceRound round = slice_->step(kernel.index, args);
    topology_.validateInbound(round.inbound);
    slice_->install(std::move(round.outboxes));
    slice_->commit();
    roundWords = round.words;
  }
  ledger_.noteRound(roundWords);
}

void RoundEngine::stepLocal(KernelId kernel, std::vector<Word> args) {
  checkKernel(kernel);
  if (shard_)
    shard_->localKernel(kernel.index, args);
  else
    slice_->local(kernel.index, args);
}

std::vector<std::vector<Word>> RoundEngine::fetchKernel(
    KernelId kernel, std::vector<Word> args) {
  checkKernel(kernel);
  if (shard_) return shard_->fetchKernel(kernel.index, args);
  return slice_->fetch(kernel.index, args);
}

void RoundEngine::checkKernel(KernelId kernel) const {
  if (kernel.index >= kernels_.size())
    throw std::invalid_argument("RoundEngine: unknown kernel id");
}

// --- Worker-owned blocks. ---

std::uint64_t RoundEngine::createBlocks(
    std::vector<std::vector<Word>> perMachine) {
  if (perMachine.size() != numMachines_)
    throw std::invalid_argument("createBlocks: perMachine size mismatch");
  const std::uint64_t handle = nextBlockHandle_++;
  if (shard_) {
    shard_->storeBlocks(handle, std::move(perMachine));
    return handle;
  }
  BlockStore& store = slice_->store();
  store.create(handle);
  for (std::size_t m = 0; m < numMachines_; ++m)
    store.block(handle, m) = std::move(perMachine[m]);
  return handle;
}

std::vector<std::vector<Word>> RoundEngine::readBlocks(std::uint64_t handle) {
  if (shard_) return shard_->fetchBlocks(handle);
  std::vector<std::vector<Word>> out(numMachines_);
  for (std::size_t m = 0; m < numMachines_; ++m)
    out[m] = slice_->store().block(handle, m);
  return out;
}

void RoundEngine::freeBlocks(std::uint64_t handle) {
  if (shard_)
    shard_->freeBlocks(handle);
  else
    slice_->store().erase(handle);
}

std::vector<WordRows> RoundEngine::snapshotInboxes() {
  // Sharded, the inboxes live in the workers; a failed backend surfaces as
  // ShardError.
  if (shard_) return shard_->fetchInboxes();
  return slice_->snapshot();
}

}  // namespace mpcspan::runtime
