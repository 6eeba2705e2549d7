// Kernels shared by the engine, transport, and golden-table tests.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "runtime/kernel.hpp"
#include "runtime/round_engine.hpp"
#include "runtime/topology.hpp"

namespace mpcspan::test_kernels {

/// Deterministic cross-shard-heavy kernel: per-machine owned state feeds the
/// next round's emissions, so any divergence in routing or merge order
/// compounds across rounds instead of cancelling out. args[0] picks the
/// topology-legal traffic shape (0 MPC, 1 clique, 2 PRAM; see
/// probeTopology).
class ProbeKernel final : public runtime::StepKernel {
 public:
  static std::string kernelName() { return "test.probe"; }

  std::vector<runtime::Message> step(const runtime::KernelCtx& ctx) override {
    ensureSized(ctx);
    const Word mode = ctx.args.empty() ? 0 : ctx.args[0];
    const std::size_t n = ctx.numMachines;
    const std::size_t m = ctx.machine;
    Word sum = 1;
    for (const runtime::Delivery& d : ctx.inbox)
      sum += 3 * d.src + d.payload.front();
    state_[m] += sum;
    const Word r = ++round_[m];
    std::vector<runtime::Message> out;
    if (mode == 0) {
      // MPC: mixed single-word (inline payload) and multi-word fan-out.
      out.push_back({(m + r) % n, {state_[m], state_[m] ^ m, r}});
      out.push_back({(m * 3 + 1) % n, {state_[m]}});
      if (m % 2 == 0) out.push_back({(m + n - 1) % n, {r, static_cast<Word>(m)}});
    } else if (mode == 1) {
      // Clique: one single-word message per ordered pair.
      out.push_back({(m + r) % n, {state_[m]}});
    } else {
      // PRAM: concurrent single-word writes, priority-CRCW resolved.
      out.push_back({(m * 5 + r) % 4, {state_[m]}});
    }
    return out;
  }

  std::vector<Word> fetch(const runtime::KernelCtx& ctx) override {
    ensureSized(ctx);
    return {state_[ctx.machine], round_[ctx.machine]};
  }

 private:
  void ensureSized(const runtime::KernelCtx& ctx) {
    std::call_once(sized_, [&] {
      state_.resize(ctx.numMachines);
      round_.resize(ctx.numMachines);
    });
  }

  std::once_flag sized_;
  std::vector<Word> state_;
  std::vector<Word> round_;
};

/// The topology ProbeKernel mode `mode` is legal on.
inline std::unique_ptr<runtime::Topology> probeTopology(int mode) {
  if (mode == 0) return std::make_unique<runtime::MpcTopology>(64);
  if (mode == 1) return std::make_unique<runtime::CliqueTopology>();
  return std::make_unique<runtime::PramTopology>();
}

/// Ring token passing: with any arg machine 0 injects 100; afterwards every
/// machine holding the token forwards token + 1 to its successor.
class TokenKernel final : public runtime::StepKernel {
 public:
  std::vector<runtime::Message> step(const runtime::KernelCtx& ctx) override {
    std::vector<runtime::Message> out;
    if (!ctx.args.empty()) {
      if (ctx.machine == 0) out.push_back({1, {100}});
    } else if (!ctx.inbox.empty()) {
      out.push_back({(ctx.machine + 1) % ctx.numMachines,
                     {ctx.inbox[0].payload[0] + 1}});
    }
    return out;
  }
};

/// One round's outboxes: outboxes[m] = every message machine m sends.
using Outboxes = std::vector<std::vector<runtime::Message>>;

/// Replays a fixed per-round outbox table: step returns
/// script[args[0]][machine]. The table rides the factory, so register it
/// (registerScript) before the engine's first sharded operation — it
/// crosses into the workers with the fork snapshot.
class ScriptKernel final : public runtime::StepKernel {
 public:
  explicit ScriptKernel(std::shared_ptr<const std::vector<Outboxes>> script)
      : script_(std::move(script)) {}

  std::vector<runtime::Message> step(const runtime::KernelCtx& ctx) override {
    return script_->at(ctx.args.at(0)).at(ctx.machine);
  }

 private:
  std::shared_ptr<const std::vector<Outboxes>> script_;
};

inline runtime::KernelId registerScript(runtime::RoundEngine& eng,
                                        std::vector<Outboxes> script) {
  auto table = std::make_shared<const std::vector<Outboxes>>(std::move(script));
  return eng.registerKernel(
      "test.script", [table] { return std::make_unique<ScriptKernel>(table); });
}

/// Steps scripted round `round` and returns every machine's inbox.
inline std::vector<std::vector<runtime::Delivery>> scriptedRound(
    runtime::RoundEngine& eng, runtime::KernelId k, Word round) {
  eng.step(k, {round});
  return eng.snapshotInboxes();
}

/// A one-round script: registers `out` and runs it.
inline std::vector<std::vector<runtime::Delivery>> scriptedRound(
    runtime::RoundEngine& eng, Outboxes out) {
  return scriptedRound(eng, registerScript(eng, {std::move(out)}), 0);
}

}  // namespace mpcspan::test_kernels
