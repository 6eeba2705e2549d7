#include "mpc/simulator.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>

#include "probe_kernels.hpp"

namespace mpcspan {
namespace {

TEST(MpcSimulator, ConfigForInputSizesMachines) {
  const MpcConfig cfg = MpcConfig::forInput(1 << 16, 0.5);
  // Total memory covers slack * input, and the coordinator floor
  // S >= 8 * machines (needed by the O(1)-round primitives) holds.
  EXPECT_GE(cfg.numMachines * cfg.wordsPerMachine, 2u * (1 << 16));
  EXPECT_GE(cfg.wordsPerMachine, 8 * cfg.numMachines);
  // With a high gamma the floor is inactive and S = N^gamma exactly.
  const MpcConfig highGamma = MpcConfig::forInput(1 << 16, 0.8, 1.0);
  EXPECT_EQ(highGamma.wordsPerMachine,
            static_cast<std::size_t>(std::pow(double(1 << 16), 0.8)));
}

TEST(MpcSimulator, ConfigForInputCapacityNeverDipsBelowSlack) {
  // Property sweep: for every (n, gamma, slack), the configured cluster
  // must hold the slack-padded input — the rounding of numMachines /
  // wordsPerMachine may never lose capacity — and the coordinator floor
  // S >= 64 * machines must hold so the O(1)-round primitives fit.
  const double gammas[] = {0.3, 0.5, 0.6, 0.67, 0.8, 1.0};
  const double slacks[] = {0.5, 1.0, 1.5, 2.0, 3.0, 3.7, 8.0};
  for (std::size_t n = 16; n <= (1u << 22); n = n * 3 + 1) {
    for (const double gamma : gammas) {
      for (const double slack : slacks) {
        const MpcConfig cfg = MpcConfig::forInput(n, gamma, slack);
        const auto need = static_cast<std::size_t>(
            std::ceil(slack * static_cast<double>(std::max<std::size_t>(n, 16))));
        EXPECT_GE(cfg.numMachines * cfg.wordsPerMachine, need)
            << "n=" << n << " gamma=" << gamma << " slack=" << slack;
        EXPECT_GE(cfg.wordsPerMachine, 64 * cfg.numMachines)
            << "n=" << n << " gamma=" << gamma << " slack=" << slack;
        EXPECT_GE(cfg.wordsPerMachine, 16u);
        EXPECT_GE(cfg.numMachines, 1u);
      }
    }
  }
}

TEST(MpcSimulator, RejectsEmptyConfig) {
  EXPECT_THROW(MpcSimulator(MpcConfig{0, 16}), std::invalid_argument);
  EXPECT_THROW(MpcSimulator(MpcConfig{4, 0}), std::invalid_argument);
}

/// One scripted round on the simulator's engine, each machine's inbox
/// flattened to its words in sender order.
std::vector<std::vector<Word>> flatRound(MpcSimulator& sim,
                                         test_kernels::Outboxes out) {
  std::vector<std::vector<Word>> inbox;
  for (const runtime::WordRows& rows :
       test_kernels::scriptedRound(sim.engine(), std::move(out)))
    inbox.emplace_back(rows.words().begin(), rows.words().end());
  return inbox;
}

TEST(MpcSimulator, DeliversMessagesAndCountsRounds) {
  MpcSimulator sim(MpcConfig{3, 16});
  test_kernels::Outboxes out(3);
  out[0].add(1, {10, 20});
  out[2].add(1, {30});
  out[1].add(0, {40});
  const auto inbox = flatRound(sim, std::move(out));
  EXPECT_EQ(sim.rounds(), 1u);
  EXPECT_EQ(sim.totalWordsSent(), 4u);
  EXPECT_EQ(inbox[1].size(), 3u);
  EXPECT_EQ(inbox[0], (std::vector<Word>{40}));
  EXPECT_TRUE(inbox[2].empty());
}

TEST(MpcSimulator, EnforcesSendCapacity) {
  MpcSimulator sim(MpcConfig{2, 4});
  test_kernels::Outboxes out(2);
  out[0].add(1, {1, 2, 3, 4, 5});
  EXPECT_THROW(flatRound(sim, std::move(out)), CapacityError);
}

TEST(MpcSimulator, EnforcesReceiveCapacity) {
  MpcSimulator sim(MpcConfig{3, 4});
  test_kernels::Outboxes out(3);
  out[0].add(2, {1, 2, 3});
  out[1].add(2, {4, 5, 6});
  EXPECT_THROW(flatRound(sim, std::move(out)), CapacityError);
}

TEST(MpcSimulator, TracksPeakTraffic) {
  MpcSimulator sim(MpcConfig{2, 16});
  test_kernels::Outboxes out(2);
  out[0].add(1, {1, 2, 3});
  test_kernels::Outboxes out2(2);
  out2[1].add(0, {1});
  const runtime::KernelId k =
      test_kernels::registerScript(sim.engine(), {out, out2});
  sim.engine().step(k, {0});
  sim.engine().step(k, {1});
  EXPECT_EQ(sim.rounds(), 2u);
  EXPECT_EQ(sim.maxRoundWords(), 3u);
}

}  // namespace
}  // namespace mpcspan
