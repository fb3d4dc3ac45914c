// Liveness-planned activation storage (DESIGN.md §10): the packed plan
// must beat the naive per-Tensor sum by the documented margin, and
// planned execution must be BITWISE identical to owning-Tensor
// execution — storage policy is not allowed to touch the math. The
// identity suites run under every SIMD dispatch level.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "dlscale/train/trainer.hpp"
#include "dlscale/util/arena.hpp"
#include "../support/simd_param.hpp"

namespace dd = dlscale::data;
namespace dm = dlscale::mpi;
namespace dn = dlscale::nn;
namespace dt = dlscale::train;
namespace du = dlscale::util;

namespace {

dt::TrainConfig tiny_config(dt::MemoryMode memory) {
  dt::TrainConfig config;
  config.model = {.in_channels = 3, .num_classes = 4, .input_size = 16, .width = 4};
  config.dataset = {.image_size = 16, .num_classes = 4, .max_shapes = 2, .noise = 0.1f,
                    .seed = 99};
  config.train_samples = 32;
  config.eval_samples = 8;
  config.batch_per_rank = 2;
  config.epochs = 2;
  config.schedule = {0.05, 0.9, 0};
  config.knobs.cycle_time_s = 1e-4;
  config.memory = memory;
  return config;
}

struct StepsResult {
  std::vector<float> losses;
  std::vector<float> params;
};

/// Runs `steps` serial training steps under the given memory mode and
/// returns every loss plus the final parameter values.
StepsResult run_steps(dt::MemoryMode memory, int steps) {
  dt::TrainConfig config = tiny_config(memory);
  dt::NoComm hook;
  dt::Trainer trainer(config, hook);
  const dd::SyntheticShapes dataset(config.dataset);
  StepsResult result;
  for (int s = 0; s < steps; ++s) {
    const dd::Sample batch = dataset.make_batch(
        {static_cast<std::uint64_t>(2 * s), static_cast<std::uint64_t>(2 * s + 1)});
    result.losses.push_back(trainer.train_step(batch, 0.05));
  }
  for (dn::Parameter* p : trainer.model().parameters()) {
    for (float v : p->value.data()) result.params.push_back(v);
  }
  return result;
}

void expect_bitwise_equal(const std::vector<float>& a, const std::vector<float>& b,
                          const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint32_t>(a[i]) != std::bit_cast<std::uint32_t>(b[i])) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0u) << what << ": " << mismatches << " of " << a.size()
                            << " values differ between memory modes";
}

TEST(MemoryPlan, PlanInstalledAfterFirstStep) {
  dt::TrainConfig config = tiny_config(dt::MemoryMode::kPlanned);
  dt::NoComm hook;
  dt::Trainer trainer(config, hook);
  EXPECT_TRUE(trainer.step_arena().plan().empty());
  const dd::SyntheticShapes dataset(config.dataset);
  trainer.train_step(dataset.make_batch({0, 1}), 0.05);
  const du::MemoryPlan& plan = trainer.step_arena().plan();
  ASSERT_FALSE(plan.empty());
  EXPECT_TRUE(trainer.step_arena().planned());
  EXPECT_GT(plan.peak_bytes, 0u);
  EXPECT_LT(plan.peak_bytes, plan.naive_bytes);
}

TEST(MemoryPlan, PackedPeakAtMost60PercentOfNaive) {
  // The acceptance bound from the refactor: on the DeepLab-v3+ test
  // model, interval packing must reclaim at least 40% of the naive
  // every-Tensor-its-own-bytes footprint (benches print the same ratio).
  dt::TrainConfig config = tiny_config(dt::MemoryMode::kPlanned);
  config.model = {.in_channels = 3, .num_classes = 6, .input_size = 32, .width = 8};
  config.dataset = {.image_size = 32, .num_classes = 6, .max_shapes = 3, .noise = 0.1f,
                    .seed = 99};
  dt::NoComm hook;
  dt::Trainer trainer(config, hook);
  const dd::SyntheticShapes dataset(config.dataset);
  trainer.train_step(dataset.make_batch({0, 1, 2, 3}), 0.05);
  const du::MemoryPlan& plan = trainer.step_arena().plan();
  ASSERT_FALSE(plan.empty());
  EXPECT_LE(plan.peak_bytes * 10, plan.naive_bytes * 6)
      << "packed " << plan.peak_bytes << " bytes vs naive " << plan.naive_bytes;
}

TEST(MemoryPlan, RetracesWhenTheBatchShapeChanges) {
  dt::TrainConfig config = tiny_config(dt::MemoryMode::kPlanned);
  dt::NoComm hook;
  dt::Trainer trainer(config, hook);
  const dd::SyntheticShapes dataset(config.dataset);
  trainer.train_step(dataset.make_batch({0, 1}), 0.05);
  const std::size_t two_sample_peak = trainer.step_arena().plan().peak_bytes;
  // A different batch size must re-trace (and shrink the plan), not trip
  // the planned-replay divergence check.
  trainer.train_step(dataset.make_batch({2}), 0.05);
  const std::size_t one_sample_peak = trainer.step_arena().plan().peak_bytes;
  EXPECT_LT(one_sample_peak, two_sample_peak);
  // And back again: plans are re-derived, not cached per shape.
  const float loss = trainer.train_step(dataset.make_batch({3, 4}), 0.05);
  EXPECT_GT(loss, 0.0f);
  EXPECT_EQ(trainer.step_arena().plan().peak_bytes, two_sample_peak);
}

class MemoryModeIdentity : public dlscale::testing::SimdLevelTest {};

TEST_P(MemoryModeIdentity, TrainingTrajectoriesMatchOwningMode) {
  const StepsResult owning = run_steps(dt::MemoryMode::kOwning, 5);
  const StepsResult planned = run_steps(dt::MemoryMode::kPlanned, 5);
  expect_bitwise_equal(owning.losses, planned.losses, "losses owning vs planned");
  expect_bitwise_equal(owning.params, planned.params, "params owning vs planned");
}

TEST_P(MemoryModeIdentity, TwoRankRunMatchesOwningMode) {
  auto run_world_report = [](dt::MemoryMode memory) {
    dt::TrainConfig config = tiny_config(memory);
    dt::TrainReport report;
    dm::run_world(2, [&](dm::Communicator& comm) {
      dt::HorovodHook hook(comm, config);
      const dt::TrainReport r = dt::Trainer(config, hook).run();
      if (comm.rank() == 0) report = r;
    });
    return report;
  };
  const dt::TrainReport owning = run_world_report(dt::MemoryMode::kOwning);
  const dt::TrainReport planned = run_world_report(dt::MemoryMode::kPlanned);
  ASSERT_EQ(owning.epochs.size(), planned.epochs.size());
  for (std::size_t e = 0; e < owning.epochs.size(); ++e) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(owning.epochs[e].train_loss),
              std::bit_cast<std::uint64_t>(planned.epochs[e].train_loss))
        << "epoch " << e << " loss";
    EXPECT_EQ(std::bit_cast<std::uint64_t>(owning.epochs[e].eval_miou),
              std::bit_cast<std::uint64_t>(planned.epochs[e].eval_miou))
        << "epoch " << e << " mIOU";
  }
}

INSTANTIATE_TEST_SUITE_P(AllLevels, MemoryModeIdentity,
                         ::testing::ValuesIn(dlscale::testing::simd_levels_under_test()),
                         dlscale::testing::simd_param_name);

}  // namespace
