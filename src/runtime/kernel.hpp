// Registered step kernels and worker-owned state — the resident half of the
// round-engine runtime.
//
// A closure cannot cross a process boundary, so machines step through
// *registered* kernels: the engine constructs one kernel instance per
// worker process (or one in-process instance when shards == 1), and that
// instance **owns** its per-machine state across rounds — per-machine
// inboxes and blocks stay resident where they are used and are never
// re-shipped through the coordinator. Anything a kernel wants to persist
// lives in the kernel instance or the BlockStore, and anything it wants to
// communicate moves through returned messages.
//
// Identity across processes: a kernel is a name in the process-global
// registry (populated at static initialization — see GlobalKernelRegistrar),
// and nothing else. Every process of an engine resolves the same name to
// the same kernel: every worker — forked or attached from another host —
// receives only the names in its SETUP frame and resolves them against the
// registry of its own copy of the binary. Blocks travel the same way: each
// worker receives its slice of the BlockStore in SETUP.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "runtime/arena.hpp"
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
/// Ownership: every block is an arena-backed WordBuf drawing from the
/// store's private Arena. The store owns the words for as long as the
/// handle lives — kernels get a reference via block(), may resize/rewrite
/// it freely, and must never retain the data pointer across a round (a
/// regrow moves the words to a different arena run). erase()/clear()
/// recycle the runs inside the arena; the arena itself lives exactly as
/// long as the store, so no block reference can outlive its memory.
///
/// Thread-safety: create/erase only between parallel phases (the engine's
/// frame handling is single-threaded); block() for *distinct* machines is
/// safe from concurrent kernel steps because lookups never rehash, and
/// concurrent regrows are safe because the arena is internally locked.
class BlockStore {
 public:
  explicit BlockStore(std::size_t numMachines) : numMachines_(numMachines) {}

  BlockStore(const BlockStore&) = delete;
  BlockStore& operator=(const BlockStore&) = delete;

  std::size_t numMachines() const { return numMachines_; }

  void create(std::uint64_t handle);
  bool has(std::uint64_t handle) const { return slots_.count(handle) != 0; }
  void erase(std::uint64_t handle) { slots_.erase(handle); }
  void clear() { slots_.clear(); }

  WordBuf& block(std::uint64_t handle, std::size_t machine);
  const WordBuf& block(std::uint64_t handle, std::size_t machine) const;

  /// Live handles in ascending order (snapshot adoption at worker fork).
  std::vector<std::uint64_t> handles() const;

  /// Words of arena memory backing all blocks (diagnostics / benches).
  std::size_t arenaReservedWords() const { return arena_.reservedWords(); }

 private:
  std::size_t numMachines_;
  Arena arena_;  // declared before slots_: blocks must die first
  std::unordered_map<std::uint64_t, std::vector<WordBuf>> slots_;
};

/// Everything a kernel sees when stepping one machine. `inbox` is the
/// machine's resident inbox — the deliveries of the last committed kernel
/// round — and `args` is the round's broadcast argument vector (identical
/// on every machine; the coordinator-side driver's only per-round input).
struct KernelCtx {
  std::size_t machine;
  std::size_t numMachines;
  const std::vector<Delivery>& inbox;
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

  /// One communication round: consume ctx.inbox, return this machine's
  /// outbox. Throwing aborts the round for every shard (the resident inbox
  /// and the ledger stay untouched; instance state mutated before the throw
  /// persists, exactly as in-process captured state would).
  virtual std::vector<Message> step(const KernelCtx& ctx) = 0;

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

/// Bit-set packing for broadcast kernel args: a per-entity flag vector
/// (sampled clusters, alive edges) travels to the workers as
/// ceil(n / 64) words instead of n, and the kernels test bits in place.
inline std::vector<Word> packArgBits(const std::vector<char>& flags) {
  std::vector<Word> words((flags.size() + 63) / 64, 0);
  for (std::size_t i = 0; i < flags.size(); ++i)
    if (flags[i]) words[i >> 6] |= Word{1} << (i & 63);
  return words;
}

/// Tests bit i of a packArgBits vector; out-of-range reads as unset (a
/// kernel must never index past the words the coordinator shipped).
inline bool testArgBit(const Word* words, std::size_t numBits, std::size_t i) {
  return i < numBits && ((words[i >> 6] >> (i & 63)) & 1) != 0;
}

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
