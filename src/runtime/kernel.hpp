// Registered step kernels and worker-owned state — the resident half of the
// round-engine runtime.
//
// A closure cannot cross a process boundary, so machines step through
// *registered* kernels: every MachineSlice (runtime/machine_slice.hpp) —
// the in-process engine's one, or one per worker process — constructs one
// kernel instance, and that instance **owns** its per-machine state across
// rounds — per-machine inboxes and blocks stay resident where they are used
// and are never re-shipped through the coordinator. Anything a kernel wants
// to persist lives in the kernel instance or the BlockStore, and anything it
// wants to communicate it appends to its outbox (a WordRows).
//
// Identity across processes: a kernel is a name in the process-global
// registry (populated at static initialization — see GlobalKernelRegistrar),
// and nothing else. Every process of an engine resolves the same name to
// the same kernel: every worker — forked or attached from another host —
// receives only the name, in a REGISTER_KERNEL frame, and resolves it
// against the registry of its own copy of the binary. Blocks reach a worker
// one way too: its slice of each createBlocks call, in a STORE frame.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "runtime/types.hpp"

namespace mpcspan::runtime {

/// Handle for a kernel registered on one RoundEngine. Deliberately a struct
/// (not a bare index) so RoundEngine::step(KernelId, args) cannot be called
/// with a stray integer.
struct KernelId {
  static constexpr std::size_t kInvalid = static_cast<std::size_t>(-1);
  std::size_t index = kInvalid;
  bool valid() const { return index != kInvalid; }
};

/// Machine-indexed word-block storage owned by the executing side: the
/// worker process for the machines it hosts, the engine itself when running
/// in-process. Handles are allocated by the coordinator
/// (RoundEngine::createBlocks) and are dense vectors over all machines —
/// a worker simply leaves the blocks outside its range empty.
///
/// Ownership: every block is a std::vector<Word>, which the store owns for
/// as long as the handle lives — kernels get a reference via block(), may
/// resize, rewrite or move a vector into it freely, and must never retain
/// the data pointer across a round (a regrow moves the words). erase()
/// frees the handle's blocks.
///
/// Thread-safety: create/erase only between parallel phases (the engine's
/// frame handling is single-threaded); block() for *distinct* machines is
/// safe from concurrent kernel steps because lookups never rehash.
class BlockStore {
 public:
  explicit BlockStore(std::size_t numMachines) : numMachines_(numMachines) {}

  BlockStore(const BlockStore&) = delete;
  BlockStore& operator=(const BlockStore&) = delete;

  std::size_t numMachines() const { return numMachines_; }

  void create(std::uint64_t handle);
  void erase(std::uint64_t handle) { slots_.erase(handle); }

  std::vector<Word>& block(std::uint64_t handle, std::size_t machine);
  const std::vector<Word>& block(std::uint64_t handle,
                                 std::size_t machine) const;

 private:
  std::size_t numMachines_;
  std::unordered_map<std::uint64_t, std::vector<std::vector<Word>>> slots_;
};

/// Everything a kernel sees when stepping one machine. `inbox` is the
/// machine's resident inbox — the rows of the last committed kernel round,
/// in (source, send position) order, each RowView's peer its sender — and
/// `args` is the round's broadcast argument vector (identical on every
/// machine; the coordinator-side driver's only per-round input). The
/// inbox's words are valid until the next round commits; a kernel that
/// keeps any of them copies them into its own state.
struct KernelCtx {
  std::size_t machine;
  std::size_t numMachines;
  std::span<const RowView> inbox;
  const std::vector<Word>& args;
  BlockStore& store;
};

/// A registered step kernel. One instance per executing side; per-machine
/// state is keyed by ctx.machine inside the instance (a sharded instance
/// only ever sees the machines of its worker's range). All three entry
/// points run in parallel over machines on the local pool, so they must
/// write only to per-machine disjoint state.
class StepKernel {
 public:
  virtual ~StepKernel() = default;

  /// One communication round: consume ctx.inbox and append this machine's
  /// messages to `out` (empty on entry), one row per message in send order.
  /// The round charges the outbox's word count. Throwing aborts the round
  /// for every shard (the resident inbox and the ledger stay untouched;
  /// instance state mutated before the throw persists, exactly as
  /// in-process captured state would).
  virtual void step(const KernelCtx& ctx, WordRows& out) = 0;

  /// A free local phase: no round, no messages (RoundEngine::stepLocal).
  virtual void local(const KernelCtx& ctx) { (void)ctx; }

  /// Serializes per-machine results for a coordinator-side collect
  /// (RoundEngine::fetchKernel). Free — diagnostics and host-side readout.
  virtual std::vector<Word> fetch(const KernelCtx& ctx) {
    (void)ctx;
    return {};
  }
};

using KernelFactory = std::function<std::unique_ptr<StepKernel>()>;

/// Process-global kernel registry. Registration is idempotent per name (the
/// first factory wins; returns false on a duplicate). Thread-safe.
bool registerGlobalKernel(std::string name, KernelFactory factory);
const KernelFactory* findGlobalKernel(const std::string& name);
/// A fresh instance of the globally registered kernel `name`. Throws
/// std::invalid_argument if no kernel is registered under it, and
/// std::runtime_error if its factory returns null.
std::unique_ptr<StepKernel> makeGlobalKernel(const std::string& name);

/// Static-initialization registrar: odr-using globalKernelRegistrar<K>
/// plants K in the global registry of every process before main — i.e.
/// before any worker can fork — so resident workers resolve K::kernelName()
/// no matter when the engine first hears about it. K needs a static
/// kernelName() and a default constructor.
template <class K>
struct GlobalKernelRegistrar {
  GlobalKernelRegistrar() {
    registerGlobalKernel(K::kernelName(),
                         [] { return std::unique_ptr<StepKernel>(new K()); });
  }
};
template <class K>
inline GlobalKernelRegistrar<K> globalKernelRegistrar{};

}  // namespace mpcspan::runtime
