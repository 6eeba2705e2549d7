#include "runtime/round_engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "runtime/shard/protocol.hpp"
#include "runtime/shard/sharded_engine.hpp"

namespace mpcspan::runtime {

RoundEngine::RoundEngine(EngineConfig cfg, MpcTopology topology)
    : numMachines_(cfg.numMachines),
      topology_(topology),
      pool_(cfg.threads),
      store_(cfg.numMachines) {
  if (numMachines_ == 0)
    throw std::invalid_argument("RoundEngine: numMachines must be positive");
  inboxes_.resize(numMachines_);

  // Backend selection (the engine factory): 1 shard keeps the in-process
  // path below; more partitions the machines over resident worker
  // processes, which start once (lazily, at the first sharded operation, so
  // the kernel names and blocks registered until then provision them) —
  // splitting the configured lane count across the workers. The
  // coordinator keeps its full-width pool_ anyway — sharded rounds bypass
  // it, but consumers run their host-side compute through
  // pool()/parallelFor() between rounds, and ThreadPool spawns its lanes
  // lazily on first use, so a sharded run that never touches pool() still
  // forks from a single-threaded parent.
  std::size_t shards =
      cfg.shards == 0 ? shard::ShardedEngine::defaultShards() : cfg.shards;
  shards = std::min(shards, numMachines_);
  if (shards > 1) {
    const std::size_t perShard =
        std::max<std::size_t>(1, pool_.numThreads() / shards);
    shard_ = std::make_unique<shard::ShardedEngine>(
        numMachines_, shards, perShard, topology_, &kernels_, &store_);
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
  kernelInstances_.emplace_back();
  if (shard_ && shard_->started()) {
    try {
      // The workers resolve the name and ack.
      shard_->announceKernel(id.index, kernels_.back());
    } catch (...) {
      // A worker could not resolve/construct the kernel. Ids are
      // append-only on every side (a partially-successful announcement may
      // have landed in some workers), so keep the dead slot but tombstone
      // its name — a corrected retry registers the same name under a fresh
      // id, and nothing can ever step the dead one.
      kernels_[id.index] = "!failed " + kernels_[id.index];
      throw;
    }
  }
  return id;
}

KernelId RoundEngine::findKernel(const std::string& name) const {
  for (std::size_t i = 0; i < kernels_.size(); ++i)
    if (kernels_[i] == name) return KernelId{i};
  return KernelId{};
}

StepKernel& RoundEngine::ensureKernelInstance(KernelId kernel) {
  if (kernel.index >= kernels_.size())
    throw std::invalid_argument("RoundEngine: unknown kernel id");
  auto& instance = kernelInstances_[kernel.index];
  if (!instance) instance = makeGlobalKernel(kernels_[kernel.index]);
  return *instance;
}

void RoundEngine::step(KernelId kernel, std::vector<Word> args) {
  if (kernel.index >= kernels_.size())
    throw std::invalid_argument("RoundEngine: unknown kernel id");
  if (shard_) {
    std::size_t roundWords = 0;
    shard_->stepKernel(kernel.index, args, roundWords);
    ledger_.noteRound(roundWords);
    inboxesResident_ = true;
    return;
  }
  StepKernel& ker = ensureKernelInstance(kernel);
  std::vector<std::vector<Message>> outboxes(numMachines_);
  pool_.parallelFor(numMachines_, [&](std::size_t m) {
    outboxes[m] = ker.step(
        KernelCtx{m, numMachines_, inboxes_[m], args, store_});
  });
  deliver(std::move(outboxes));
}

void RoundEngine::deliver(std::vector<std::vector<Message>> outboxes) {
  // Everything is checked before anything moves, so a rejected round
  // leaves the inboxes and the ledger untouched.
  const std::size_t roundWords = topology_.validate(numMachines_, outboxes);
  const std::vector<std::vector<shard::Ref>> byDst =
      shard::indexByDst(outboxes, 0, numMachines_);

  // Materialize in parallel: each destination is owned by exactly one loop
  // index and every message has one destination, so the payload moves are
  // disjoint — delivery order is fixed by the index pass, not the schedule.
  std::vector<std::vector<Delivery>> inbox(numMachines_);
  pool_.parallelFor(numMachines_, [&](std::size_t d) {
    inbox[d].reserve(byDst[d].size());
    for (const shard::Ref& ref : byDst[d])
      inbox[d].push_back(
          {ref.src, std::move(outboxes[ref.src][ref.pos].payload)});
  });
  inboxes_ = std::move(inbox);
  ledger_.noteRound(roundWords);
}

void RoundEngine::stepLocal(KernelId kernel, std::vector<Word> args) {
  if (kernel.index >= kernels_.size())
    throw std::invalid_argument("RoundEngine: unknown kernel id");
  if (shard_) {
    shard_->localKernel(kernel.index, args);
    return;
  }
  StepKernel& ker = ensureKernelInstance(kernel);
  pool_.parallelFor(numMachines_, [&](std::size_t m) {
    ker.local(KernelCtx{m, numMachines_, inboxes_[m], args, store_});
  });
}

std::vector<std::vector<Word>> RoundEngine::fetchKernel(
    KernelId kernel, std::vector<Word> args) {
  if (kernel.index >= kernels_.size())
    throw std::invalid_argument("RoundEngine: unknown kernel id");
  if (shard_) return shard_->fetchKernel(kernel.index, args);
  StepKernel& ker = ensureKernelInstance(kernel);
  std::vector<std::vector<Word>> out(numMachines_);
  pool_.parallelFor(numMachines_, [&](std::size_t m) {
    out[m] = ker.fetch(KernelCtx{m, numMachines_, inboxes_[m], args, store_});
  });
  return out;
}

// --- Worker-owned blocks. ---

std::uint64_t RoundEngine::createBlocks(
    std::vector<std::vector<Word>> perMachine) {
  if (perMachine.size() != numMachines_)
    throw std::invalid_argument("createBlocks: perMachine size mismatch");
  const std::uint64_t handle = nextBlockHandle_++;
  if (shard_ && shard_->started()) {
    shard_->storeBlocks(handle, std::move(perMachine));
    return handle;
  }
  // In-process, or staged for the workers, which adopt the store's
  // contents when they start (through the fork or in SETUP).
  store_.create(handle);
  for (std::size_t m = 0; m < numMachines_; ++m)
    store_.block(handle, m) = std::move(perMachine[m]);
  return handle;
}

std::vector<std::vector<Word>> RoundEngine::readBlocks(std::uint64_t handle) {
  if (shard_ && shard_->started())
    return shard_->fetchBlocks(handle);
  std::vector<std::vector<Word>> out(numMachines_);
  for (std::size_t m = 0; m < numMachines_; ++m)
    out[m] = store_.block(handle, m).toVector();
  return out;
}

void RoundEngine::freeBlocks(std::uint64_t handle) {
  if (shard_ && shard_->started()) {
    shard_->freeBlocks(handle);
    return;
  }
  store_.erase(handle);
}

std::vector<std::vector<Delivery>> RoundEngine::snapshotInboxes() {
  // inboxesResident_ implies the authoritative copy lives (lived) in the
  // resident workers — fetch it, and if the backend has since failed let
  // the ShardError surface rather than passing off the stale coordinator
  // copy as valid.
  if (inboxesResident_) return shard_->fetchInboxes();
  return inboxes_;
}

}  // namespace mpcspan::runtime
