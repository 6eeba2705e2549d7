// Kernels shared by the engine, transport, and golden-table tests.
#pragma once

#include <atomic>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "runtime/kernel.hpp"
#include "runtime/round_engine.hpp"
#include "runtime/topology.hpp"

namespace mpcspan::test_kernels {

/// Deterministic cross-shard-heavy kernel: per-machine owned state feeds the
/// next round's emissions, so any divergence in routing or merge order
/// compounds across rounds instead of cancelling out. Its traffic fits
/// probeTopology().
class ProbeKernel final : public runtime::StepKernel {
 public:
  static std::string kernelName() { return "test.probe"; }

  std::vector<runtime::Message> step(const runtime::KernelCtx& ctx) override {
    ensureSized(ctx);
    const std::size_t n = ctx.numMachines;
    const std::size_t m = ctx.machine;
    Word sum = 1;
    for (const runtime::Delivery& d : ctx.inbox)
      sum += 3 * d.src + d.payload.front();
    state_[m] += sum;
    const Word r = ++round_[m];
    // Mixed single-word (inline payload) and multi-word fan-out.
    std::vector<runtime::Message> out;
    out.push_back({(m + r) % n, {state_[m], state_[m] ^ m, r}});
    out.push_back({(m * 3 + 1) % n, {state_[m]}});
    if (m % 2 == 0) out.push_back({(m + n - 1) % n, {r, static_cast<Word>(m)}});
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

/// The MPC budget ProbeKernel's traffic fits on 12 machines.
inline runtime::MpcTopology probeTopology() { return runtime::MpcTopology(64); }

/// Ring token passing: with any arg machine 0 injects 100; afterwards every
/// machine holding the token forwards token + 1 to its successor.
class TokenKernel final : public runtime::StepKernel {
 public:
  static std::string kernelName() { return "test.token"; }

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

/// Replays a fixed per-round outbox table: step returns round args[0]'s
/// outbox of ctx.machine. The table is an ordinary worker-resident block —
/// machine m's block holds m's outbox of every round, each as a message
/// count followed by (dst, length, payload words) per message — so it
/// reaches every worker the way any block does. registerScript ships it and
/// binds the kernel to its handle with one free local phase.
class ScriptKernel final : public runtime::StepKernel {
 public:
  static std::string kernelName() { return "test.script"; }

  void local(const runtime::KernelCtx& ctx) override {
    handle_ = ctx.args.at(0);  // the same value from every machine
  }

  std::vector<runtime::Message> step(const runtime::KernelCtx& ctx) override {
    const runtime::WordBuf& block = ctx.store.block(handle_, ctx.machine);
    const Word round = ctx.args.at(0);
    std::size_t pos = 0;
    for (Word r = 0; pos < block.size(); ++r) {
      const Word count = block.data()[pos++];
      std::vector<runtime::Message> out;
      for (Word i = 0; i < count; ++i) {
        const std::size_t dst = block.data()[pos];
        const std::size_t len = block.data()[pos + 1];
        if (r == round)
          out.push_back({dst, runtime::Payload(block.data() + pos + 2, len)});
        pos += 2 + len;
      }
      if (r == round) return out;
    }
    throw std::out_of_range("ScriptKernel: no such round");
  }

 private:
  std::atomic<Word> handle_{0};
};

inline runtime::KernelId registerScript(runtime::RoundEngine& eng,
                                        const std::vector<Outboxes>& script) {
  std::vector<std::vector<Word>> perMachine(eng.numMachines());
  for (const Outboxes& round : script) {
    if (round.size() != eng.numMachines())
      throw std::invalid_argument("registerScript: one outbox per machine");
    for (std::size_t m = 0; m < round.size(); ++m) {
      perMachine[m].push_back(round[m].size());
      for (const runtime::Message& msg : round[m]) {
        perMachine[m].push_back(msg.dst);
        perMachine[m].push_back(msg.payload.size());
        perMachine[m].insert(perMachine[m].end(), msg.payload.begin(),
                             msg.payload.end());
      }
    }
  }
  const runtime::KernelId k = runtime::ensureKernel<ScriptKernel>(eng);
  eng.stepLocal(k, {eng.createBlocks(std::move(perMachine))});
  return k;
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
