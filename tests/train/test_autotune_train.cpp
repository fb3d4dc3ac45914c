// Autotuning is observation-only: live knob switches mid-training change
// how gradients are batched and scheduled, never the averaged values the
// optimizer consumes. Also covers the per-epoch communication stats added
// to EpochReport.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "dlscale/net/topology.hpp"
#include "dlscale/train/trainer.hpp"

namespace dt = dlscale::train;
namespace dm = dlscale::mpi;
namespace dh = dlscale::hvd;
namespace dn = dlscale::net;

namespace {

dt::TrainConfig tiny_config() {
  dt::TrainConfig config;
  config.model = {.in_channels = 3, .num_classes = 4, .input_size = 16, .width = 4};
  config.dataset = {.image_size = 16, .num_classes = 4, .max_shapes = 2, .noise = 0.1f,
                    .seed = 99};
  config.train_samples = 32;
  config.eval_samples = 8;
  config.batch_per_rank = 2;
  config.epochs = 3;
  config.schedule = {0.05, 0.9, 0};
  config.knobs.cycle_time_s = 1e-4;
  return config;
}

// 4 nodes x 1 GPU: hierarchical != flat only changes staging, and
// recursive doubling's pairing tree is independent of buffer offsets, so
// no knob in the tuning space can perturb summation order (see DESIGN.md
// section 7).
dm::WorldOptions flat_world() {
  dm::WorldOptions options;
  options.topology = dn::Topology(4, 1, 1);
  options.timing = false;
  return options;
}

}  // namespace

TEST(Autotune, TrainingMetricsAreBitwiseIdenticalToFixedKnobs) {
  auto config = tiny_config();
  // Pin the collective algorithm: ring allreduce's accumulation order
  // depends on how tensors land inside fusion buffers, recursive
  // doubling's does not — the precondition for knob switches being
  // bitwise-invisible.
  config.knobs.algo = dm::AllreduceAlgo::kRecursiveDoubling;

  std::vector<dt::EpochReport> fixed;
  dm::run_world(flat_world(), [&](dm::Communicator& comm) {
    dt::HorovodHook hook(comm, config);
    const auto report = dt::Trainer(config, hook).run();
    if (comm.rank() == 0) fixed = report.epochs;
  });
  ASSERT_EQ(fixed.size(), 3u);

  // Same run, but retuning every step across fusion thresholds that
  // demonstrably change batching (1 byte -> every tensor alone; 64 MiB ->
  // everything fused) and across cycle times and hierarchy.
  config.autotune.enabled = true;
  config.autotune.window_steps = 1;
  config.autotune.space.fusion_thresholds = {1, 8 << 20, 64 << 20};
  config.autotune.space.cycle_times_s = {1e-4, 1e-3};
  config.autotune.space.hierarchical = {false, true};

  std::vector<dt::EpochReport> tuned;
  int windows = 0;
  dm::run_world(flat_world(), [&](dm::Communicator& comm) {
    dt::HorovodHook hook(comm, config);
    const auto report = dt::Trainer(config, hook).run();
    if (comm.rank() == 0) {
      tuned = report.epochs;
      windows = hook.tuner()->windows_completed();
    }
  });

  ASSERT_EQ(tuned.size(), fixed.size());
  EXPECT_GT(windows, 2) << "tuner must actually have switched knobs mid-run";
  for (std::size_t e = 0; e < fixed.size(); ++e) {
    EXPECT_DOUBLE_EQ(tuned[e].train_loss, fixed[e].train_loss) << "epoch " << e;
    EXPECT_DOUBLE_EQ(tuned[e].eval_miou, fixed[e].eval_miou) << "epoch " << e;
    EXPECT_DOUBLE_EQ(tuned[e].eval_pixel_accuracy, fixed[e].eval_pixel_accuracy)
        << "epoch " << e;
  }
}

TEST(Autotune, HorovodHookHonoursAutotuneConfig) {
  // A Trainer over a plain HorovodHook must tune when the config says so:
  // starting fully fused, the tuner's 1-byte fusion candidate splits every
  // tensor into its own collective for at least one window.
  auto config = tiny_config();
  config.knobs.fusion_threshold = 64 << 20;
  config.autotune.window_steps = 1;
  config.autotune.space.fusion_thresholds = {1, 64 << 20};
  config.autotune.space.cycle_times_s = {1e-4};
  config.autotune.space.hierarchical = {false};

  auto fused_batches = [&](bool autotune) {
    config.autotune.enabled = autotune;
    std::uint64_t batches = 0;
    int windows = 0;
    dm::run_world(2, [&](dm::Communicator& comm) {
      dt::HorovodHook hook(comm, config);
      EXPECT_EQ(hook.tuner() != nullptr, autotune);
      const auto report = dt::Trainer(config, hook).run();
      if (comm.rank() == 0) {
        batches = report.hvd_stats.fused_batches;
        if (hook.tuner() != nullptr) windows = hook.tuner()->windows_completed();
      }
    });
    if (autotune) {
      EXPECT_GT(windows, 0);
    }
    return batches;
  };

  const std::uint64_t fixed = fused_batches(false);
  const std::uint64_t tuned = fused_batches(true);
  EXPECT_GT(tuned, fixed) << "the tuner never switched the fusion threshold";
}

TEST(EpochReport, PerEpochCommStatsSumToLifetimeTotals) {
  auto config = tiny_config();
  config.epochs = 2;
  dm::run_world(2, [&](dm::Communicator& comm) {
    dt::HorovodHook hook(comm, config);
    const auto report = dt::Trainer(config, hook).run();
    ASSERT_EQ(report.epochs.size(), 2u);
    dh::RuntimeStats sum;
    for (const auto& epoch : report.epochs) {
      EXPECT_GT(epoch.comm_stats.bytes_reduced, 0u) << "epoch " << epoch.epoch;
      EXPECT_GT(epoch.comm_stats.cycles, 0u) << "epoch " << epoch.epoch;
      sum.cycles += epoch.comm_stats.cycles;
      sum.tensors_negotiated += epoch.comm_stats.tensors_negotiated;
      sum.fused_batches += epoch.comm_stats.fused_batches;
      sum.bytes_reduced += epoch.comm_stats.bytes_reduced;
      sum.control_bytes += epoch.comm_stats.control_bytes;
    }
    // Epoch deltas partition the run: train_epoch snapshots at epoch start
    // and subtracts, so the pieces must re-assemble the lifetime counters.
    EXPECT_EQ(sum.cycles, report.hvd_stats.cycles);
    EXPECT_EQ(sum.tensors_negotiated, report.hvd_stats.tensors_negotiated);
    EXPECT_EQ(sum.fused_batches, report.hvd_stats.fused_batches);
    EXPECT_EQ(sum.bytes_reduced, report.hvd_stats.bytes_reduced);
    EXPECT_EQ(sum.control_bytes, report.hvd_stats.control_bytes);
  });
}

TEST(EpochReport, CommStatsAllZeroUnderNoComm) {
  auto config = tiny_config();
  config.epochs = 1;
  config.batch_per_rank *= 2;
  dt::NoComm hook;
  const auto report = dt::Trainer(config, hook).run();
  ASSERT_EQ(report.epochs.size(), 1u);
  EXPECT_EQ(report.epochs[0].comm_stats.bytes_reduced, 0u);
  EXPECT_EQ(report.epochs[0].comm_stats.cycles, 0u);
}
