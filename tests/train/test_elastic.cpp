// Elastic fault-tolerant training: a 4-rank run losing a rank mid-epoch
// must shrink, restore from the last checkpoint, and finish — and the
// post-recovery training must be BITWISE what an uninterrupted smaller
// world produces from the same checkpoint (which makes the issue's
// "mIOU within 0.02" acceptance bar exact rather than statistical).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

#include "dlscale/net/profile.hpp"
#include "dlscale/net/topology.hpp"
#include "dlscale/train/elastic.hpp"
#include "dlscale/train/trainer.hpp"
#include "../support/simd_param.hpp"
#include "../support/temp_file.hpp"

namespace dm = dlscale::mpi;
namespace dt = dlscale::train;

using dlscale::testing::TempFile;

namespace {

dm::WorldOptions functional_world(int ranks) {
  dm::WorldOptions options;
  options.topology = dlscale::net::Topology::single_node(ranks);
  options.profile = dlscale::net::MpiProfile::ideal();
  options.timing = false;
  return options;
}

dt::TrainConfig tiny_config() {
  dt::TrainConfig config;
  config.model = {.in_channels = 3, .num_classes = 4, .input_size = 16, .width = 4};
  config.dataset = {.image_size = 16, .num_classes = 4, .max_shapes = 2, .noise = 0.1f,
                    .seed = 99};
  config.train_samples = 16;
  config.eval_samples = 8;
  config.batch_per_rank = 2;
  config.epochs = 3;
  return config;
}

std::vector<char> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

}  // namespace

class ElasticTrain : public dlscale::testing::SimdLevelTest {};

TEST_P(ElasticTrain, KilledRankMidEpochConvergesLikeUninterruptedSmallWorld) {
  // Acceptance run: 4 ranks, rank 2 killed during epoch 1 (its third
  // on_step_begin; 2 steps/epoch at 4 ranks). Survivors shrink to 3,
  // restore the epoch-0 checkpoint, and replay epochs 1..2.
  const dt::TrainConfig config = tiny_config();
  TempFile elastic_ckpt("dlscale_elastic_acceptance.bin");
  TempFile reference_ckpt("dlscale_elastic_reference.bin");

  // Reference checkpoint: an uninterrupted 4-rank run saved after epoch 0
  // — deterministic, so it is byte-for-byte the checkpoint the elastic
  // run writes before the failure (the elastic run's own file cannot be
  // reused: post-recovery epochs overwrite it with 3-rank state).
  dm::run_world(functional_world(4), [&](dm::Communicator& comm) {
    dt::HorovodHook hook(comm, config);
    dt::Trainer trainer(config, hook);
    trainer.train_epoch();
    if (comm.rank() == 0) trainer.save_state(reference_ckpt.path);
    comm.barrier();
  });

  // Elastic run with the injected failure.
  dt::TrainReport elastic_report;
  std::vector<dt::RecoveryEvent> recoveries;
  auto options = functional_world(4);
  options.faults.kills = {{/*global_rank=*/2, /*at_step=*/2}};
  dm::run_world(options, [&](dm::Communicator& comm) {
    dt::ElasticConfig elastic;
    elastic.train = config;
    elastic.checkpoint_path = elastic_ckpt.path;
    dt::ElasticTrainer driver(comm, elastic);
    const dt::TrainReport report = driver.run();
    if (driver.comm().rank() == 0) {
      elastic_report = report;
      recoveries = driver.recoveries();
    }
  });

  ASSERT_EQ(recoveries.size(), 1u);
  EXPECT_EQ(recoveries[0].failed_global_rank, 2);
  EXPECT_EQ(recoveries[0].old_size, 4);
  EXPECT_EQ(recoveries[0].new_size, 3);
  EXPECT_TRUE(recoveries[0].restored_from_checkpoint);
  EXPECT_EQ(recoveries[0].resumed_epoch, 1);
  ASSERT_EQ(elastic_report.epochs.size(), 3u);

  // Uninterrupted 3-rank continuation from the same checkpoint, using the
  // same world-rescaling rule the elastic run applied after the shrink.
  dt::TrainReport reference_report;
  dm::run_world(functional_world(3), [&](dm::Communicator& comm) {
    const dt::TrainConfig scaled = dt::ElasticTrainer::rescale_for_world(config, 3, 4);
    dt::HorovodHook hook(comm, scaled);
    dt::Trainer trainer(scaled, hook);
    trainer.load_state(reference_ckpt.path);
    const dt::TrainReport report = trainer.run();
    if (comm.rank() == 0) reference_report = report;
  });

  // Replayed epochs are bitwise the uninterrupted small-world epochs.
  ASSERT_EQ(reference_report.epochs.size(), 2u);
  for (std::size_t i = 0; i < reference_report.epochs.size(); ++i) {
    const dt::EpochReport& replayed = elastic_report.epochs[i + 1];
    const dt::EpochReport& reference = reference_report.epochs[i];
    EXPECT_EQ(replayed.epoch, reference.epoch);
    EXPECT_EQ(bits(replayed.train_loss), bits(reference.train_loss)) << "epoch " << i + 1;
    EXPECT_EQ(bits(replayed.eval_miou), bits(reference.eval_miou)) << "epoch " << i + 1;
  }
  // The issue's stated acceptance bar, implied by (and weaker than) the
  // bitwise check above.
  EXPECT_NEAR(elastic_report.final_miou(), reference_report.final_miou(), 0.02);
}

INSTANTIATE_TEST_SUITE_P(SimdLevels, ElasticTrain,
                         ::testing::ValuesIn(dlscale::testing::simd_levels_under_test()),
                         dlscale::testing::simd_param_name);

TEST(ElasticCheckpoint, RestoreUnderShrinkIsBitwiseEqualToFreshSmallWorldLoad) {
  // Save at step k with 4 ranks; run the real shrink-and-restore path;
  // the restored trainer's state must be byte-for-byte what a fresh
  // 3-rank trainer loading the same file holds, with counters at k.
  const dt::TrainConfig config = tiny_config();
  TempFile saved("dlscale_shrink_saved.bin");
  TempFile after_elastic("dlscale_shrink_elastic.bin");
  TempFile after_fresh("dlscale_shrink_fresh.bin");
  long step_k = 0;

  auto options = functional_world(4);
  options.faults.kills = {{/*global_rank=*/3, /*at_step=*/2}};
  dm::run_world(options, [&](dm::Communicator& comm) {
    dt::HorovodHook hook(comm, config);
    dt::Trainer trainer(config, hook);
    trainer.train_epoch();
    if (comm.rank() == 0) {
      trainer.save_state(saved.path);
      step_k = trainer.global_step();
    }
    try {
      // Rank 3 dies at its next step begin; survivors fail collectively.
      // The barrier is inside the try: rank 3 can exit it and die while a
      // survivor is still in a barrier round, and death outranks an
      // available message, so even this barrier may raise RankFailed.
      comm.barrier();
      hook.on_step_begin();
      hook.on_step_end();
      if (comm.rank() != 3) {
        std::vector<double> v{1.0};
        hook.allreduce_sum(std::span<double>(v));
      }
      FAIL() << "rank " << comm.rank() << " survived the injected kill";
    } catch (const dm::RankFailed&) {
      dm::Communicator survivors = comm.shrink();
      const dt::TrainConfig scaled = dt::ElasticTrainer::rescale_for_world(config, 3, 4);
      dt::HorovodHook new_hook(survivors, scaled);
      dt::Trainer restored(scaled, new_hook);
      restored.load_state(saved.path);
      EXPECT_EQ(restored.global_step(), step_k);
      EXPECT_EQ(restored.next_epoch(), 1);
      if (survivors.rank() == 0) restored.save_state(after_elastic.path);
      survivors.barrier();
    }
  });

  dm::run_world(functional_world(3), [&](dm::Communicator& comm) {
    const dt::TrainConfig scaled = dt::ElasticTrainer::rescale_for_world(config, 3, 4);
    dt::HorovodHook hook(comm, scaled);
    dt::Trainer fresh(scaled, hook);
    fresh.load_state(saved.path);
    EXPECT_EQ(fresh.global_step(), step_k);
    if (comm.rank() == 0) fresh.save_state(after_fresh.path);
    comm.barrier();
  });

  const std::vector<char> elastic_bytes = read_file(after_elastic.path);
  const std::vector<char> fresh_bytes = read_file(after_fresh.path);
  ASSERT_FALSE(elastic_bytes.empty());
  EXPECT_TRUE(elastic_bytes == fresh_bytes)
      << "restored-under-shrink state diverges from a fresh small-world load";
}

TEST(Elastic, NoCheckpointRestartsFromScratchAtSmallerWorld) {
  const dt::TrainConfig config = tiny_config();
  std::vector<dt::RecoveryEvent> recoveries;
  dt::TrainReport report;
  auto options = functional_world(4);
  options.faults.kills = {{/*global_rank=*/1, /*at_step=*/3}};
  dm::run_world(options, [&](dm::Communicator& comm) {
    dt::ElasticConfig elastic;
    elastic.train = config;  // checkpoint_path left empty
    dt::ElasticTrainer driver(comm, elastic);
    const dt::TrainReport out = driver.run();
    if (driver.comm().rank() == 0) {
      report = out;
      recoveries = driver.recoveries();
    }
  });
  ASSERT_EQ(recoveries.size(), 1u);
  EXPECT_FALSE(recoveries[0].restored_from_checkpoint);
  EXPECT_EQ(recoveries[0].resumed_step, 0);
  EXPECT_EQ(recoveries[0].resumed_epoch, 0);
  EXPECT_GT(recoveries[0].steps_replayed, 0);
  // The restarted run still trains all epochs at the shrunken size.
  ASSERT_EQ(report.epochs.size(), 3u);
}

TEST(Elastic, SurvivesTwoFailuresWithCheckpointing) {
  // 4 -> 3 -> 2 ranks: rank 3 dies in epoch 1, rank 1 dies after the
  // replayed epoch 1 checkpoint; the run still completes every epoch.
  const dt::TrainConfig config = tiny_config();
  TempFile ckpt("dlscale_elastic_double.bin");
  std::vector<dt::RecoveryEvent> recoveries;
  dt::TrainReport report;
  int final_size = 0;
  auto options = functional_world(4);
  options.faults.kills = {{/*global_rank=*/3, /*at_step=*/2},
                          {/*global_rank=*/1, /*at_step=*/5}};
  dm::run_world(options, [&](dm::Communicator& comm) {
    dt::ElasticConfig elastic;
    elastic.train = config;
    elastic.checkpoint_path = ckpt.path;
    dt::ElasticTrainer driver(comm, elastic);
    const dt::TrainReport out = driver.run();
    if (driver.comm().rank() == 0) {
      report = out;
      recoveries = driver.recoveries();
      final_size = driver.comm().size();
    }
  });
  ASSERT_EQ(recoveries.size(), 2u);
  EXPECT_EQ(recoveries[0].new_size, 3);
  EXPECT_EQ(recoveries[1].new_size, 2);
  EXPECT_EQ(final_size, 2);
  EXPECT_TRUE(recoveries[0].restored_from_checkpoint);
  EXPECT_TRUE(recoveries[1].restored_from_checkpoint);
  EXPECT_LT(recoveries[0].world_epoch, recoveries[1].world_epoch);
  ASSERT_EQ(report.epochs.size(), 3u);
}

TEST(Elastic, MaxRecoveriesExhaustedRethrows) {
  const dt::TrainConfig config = tiny_config();
  std::atomic<int> rethrown{0};
  auto options = functional_world(3);
  options.faults.kills = {{/*global_rank=*/2, /*at_step=*/2}};
  dm::run_world(options, [&](dm::Communicator& comm) {
    dt::ElasticConfig elastic;
    elastic.train = config;
    elastic.max_recoveries = 0;  // recovery disabled: failure is fatal
    dt::ElasticTrainer driver(comm, elastic);
    try {
      driver.run();
    } catch (const dm::RankFailed& e) {
      EXPECT_EQ(e.failed_global_rank, 2);
      rethrown.fetch_add(1);
    }
  });
  EXPECT_EQ(rethrown.load(), 2);
}

TEST(ElasticAutotune, TunerWindowRestartsOnWorldChange) {
  // Three steps into a four-step window, the hook's on_world_change must
  // reach the tuner and discard the partial window: three more steps stay
  // short of a boundary, and only the fourth post-reset step closes one.
  dm::run_world(functional_world(2), [](dm::Communicator& comm) {
    dt::TrainConfig config = tiny_config();
    config.autotune.enabled = true;
    config.autotune.window_steps = 4;
    dt::HorovodHook hook(comm, config);
    dlscale::hvd::Autotuner* tuner = hook.tuner();
    ASSERT_NE(tuner, nullptr);
    for (int i = 0; i < 3; ++i) hook.on_step_end();
    EXPECT_EQ(tuner->windows_completed(), 0);
    hook.on_world_change({.old_size = 2, .new_size = 2, .my_rank = comm.rank(),
                          .world_epoch = comm.world_epoch()});
    for (int i = 0; i < 3; ++i) hook.on_step_end();
    // Without the reset these would be steps 4..6 and a window would have
    // closed at step 4.
    EXPECT_EQ(tuner->windows_completed(), 0);
    hook.on_step_end();
    EXPECT_EQ(tuner->windows_completed(), 1);
  });
}

TEST(ElasticAutotune, ElasticRunWithAutotuneRecovers) {
  // End-to-end: the hook's tuner survives a shrink (it rebinds to the
  // rebuilt runtime, its window restarts) and training completes.
  dt::TrainConfig config = tiny_config();
  config.autotune.enabled = true;
  config.autotune.window_steps = 2;
  TempFile ckpt("dlscale_elastic_autotune.bin");
  std::vector<dt::RecoveryEvent> recoveries;
  dt::TrainReport report;
  auto options = functional_world(4);
  options.faults.kills = {{/*global_rank=*/2, /*at_step=*/3}};
  dm::run_world(options, [&](dm::Communicator& comm) {
    dt::ElasticConfig elastic;
    elastic.train = config;
    elastic.checkpoint_path = ckpt.path;
    dt::ElasticTrainer driver(comm, elastic);
    const dt::TrainReport out = driver.run();
    if (driver.comm().rank() == 0) {
      report = out;
      recoveries = driver.recoveries();
    }
  });
  ASSERT_EQ(recoveries.size(), 1u);
  EXPECT_TRUE(recoveries[0].restored_from_checkpoint);
  ASSERT_EQ(report.epochs.size(), 3u);
  EXPECT_GT(report.epochs.back().eval_miou, 0.0);
}

TEST(ElasticAutotune, CoordinatorDeathMidTuningRecovers) {
  // Global rank 0 owns the tuning policy and dies mid-tuning: the new
  // rank 0 (old rank 1) restarts the search from the incumbent knobs, and
  // the survivors restore, finish every epoch and end bitwise identical.
  dt::TrainConfig config = tiny_config();
  config.autotune.enabled = true;
  config.autotune.window_steps = 2;
  constexpr long kKillStep = 3;  // epoch 1, second step (2 steps/epoch)

  // Healthy reference: the tuner is still exploring after the first two
  // epochs (steps 0..3), so the kill at step 3 lands before it freezes.
  dm::run_world(functional_world(4), [&](dm::Communicator& comm) {
    dt::HorovodHook hook(comm, config);
    dt::Trainer trainer(config, hook);
    trainer.train_epoch();
    trainer.train_epoch();
    ASSERT_EQ(trainer.global_step(), kKillStep + 1);
    EXPECT_EQ(hook.tuner()->windows_completed(), 2);
    EXPECT_FALSE(hook.tuner()->frozen());
  });

  TempFile ckpt("dlscale_elastic_coordinator_death.bin");
  std::vector<std::vector<dt::RecoveryEvent>> recoveries(4);
  std::vector<std::vector<float>> params(4);
  dt::TrainReport report;
  auto options = functional_world(4);
  options.faults.kills = {{/*global_rank=*/0, /*at_step=*/kKillStep}};
  dm::run_world(options, [&](dm::Communicator& comm) {
    dt::ElasticConfig elastic;
    elastic.train = config;
    elastic.checkpoint_path = ckpt.path;
    dt::ElasticTrainer driver(comm, elastic);
    const dt::TrainReport out = driver.run();
    const auto g = static_cast<std::size_t>(comm.global_rank());
    recoveries[g] = driver.recoveries();
    for (dlscale::nn::Parameter* p : driver.trainer().model().parameters()) {
      const auto values = p->value.data();
      params[g].insert(params[g].end(), values.begin(), values.end());
    }
    if (driver.comm().rank() == 0) report = out;
  });

  EXPECT_TRUE(recoveries[0].empty()) << "the killed rank never recovers";
  for (int g = 1; g < 4; ++g) {
    ASSERT_EQ(recoveries[g].size(), 1u) << "survivor " << g;
    EXPECT_EQ(recoveries[g][0].failed_global_rank, 0);
    EXPECT_EQ(recoveries[g][0].new_size, 3);
    EXPECT_TRUE(recoveries[g][0].restored_from_checkpoint);
  }
  ASSERT_EQ(report.epochs.size(), 3u);
  EXPECT_GT(report.epochs.back().eval_miou, 0.0);
  ASSERT_FALSE(params[1].empty());
  for (int g = 2; g < 4; ++g) {
    ASSERT_EQ(params[g].size(), params[1].size());
    EXPECT_EQ(std::memcmp(params[g].data(), params[1].data(), params[1].size() * sizeof(float)), 0)
        << "survivor " << g << " parameters differ from survivor 1";
  }
}
