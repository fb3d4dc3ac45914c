// Convergence gates for compressed allreduce (DESIGN.md §12): int8 and
// top-k with error feedback must land within 0.02 absolute mIOU of the
// fp32 baseline at 2 and 4 ranks; a no-error-feedback control shows the
// residual is what buys that parity; residual state must survive a
// checkpoint save/restore and a 4->3 elastic shrink without corrupting
// convergence.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "dlscale/net/profile.hpp"
#include "dlscale/net/topology.hpp"
#include "dlscale/train/elastic.hpp"
#include "dlscale/train/trainer.hpp"
#include "../support/simd_param.hpp"
#include "../support/temp_file.hpp"

namespace dh = dlscale::hvd;
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

dt::TrainConfig tiny_config(dh::CompressionAlgo algo, float topk_ratio = 0.25f,
                            bool error_feedback = true) {
  dt::TrainConfig config;
  config.model = {.in_channels = 3, .num_classes = 4, .input_size = 16, .width = 4};
  config.dataset = {.image_size = 16, .num_classes = 4, .max_shapes = 2, .noise = 0.1f,
                    .seed = 99};
  config.train_samples = 16;
  config.eval_samples = 8;
  config.batch_per_rank = 2;
  config.epochs = 3;
  config.knobs.compression = algo;
  config.knobs.topk_ratio = topk_ratio;
  config.knobs.error_feedback = error_feedback;
  return config;
}

double distributed_miou(int ranks, const dt::TrainConfig& config) {
  double miou = -1.0;
  dm::run_world(functional_world(ranks), [&](dm::Communicator& comm) {
    dt::HorovodHook hook(comm, config);
    const dt::TrainReport report = dt::Trainer(config, hook).run();
    if (comm.rank() == 0) miou = report.final_miou();
  });
  return miou;
}

}  // namespace

class CompressionMiou : public dlscale::testing::SimdLevelTest {
 protected:
  /// Per-parameter file tag: the scalar and avx2 twins may run at once.
  [[nodiscard]] std::string param_tag() const {
    return dlscale::util::simd_level_name(GetParam());
  }
};

TEST_P(CompressionMiou, ParityGateInt8AndTopKTrackFp32) {
  // The issue's acceptance bar: absolute mIOU drop <= 0.02 vs fp32 with
  // error feedback on, at both 2 and 4 ranks.
  for (const int ranks : {2, 4}) {
    const double fp32 = distributed_miou(ranks, tiny_config(dh::CompressionAlgo::kNone));
    ASSERT_GE(fp32, 0.0) << ranks << " ranks";
    const double int8 = distributed_miou(ranks, tiny_config(dh::CompressionAlgo::kInt8));
    EXPECT_GE(int8, fp32 - 0.02) << ranks << " ranks (int8 + EF)";
    // Top-k at 50%: the run is only ~6-12 optimizer steps, so the
    // residual needs a moderate ratio to deliver every coordinate's mass
    // within the horizon. (Aggressive 1% sparsity is exercised by the
    // EF-control test below, where only the RELATIVE gap matters.)
    const double topk =
        distributed_miou(ranks, tiny_config(dh::CompressionAlgo::kTopK, 0.5f));
    EXPECT_GE(topk, fp32 - 0.02) << ranks << " ranks (top-k + EF)";
  }
}

TEST_P(CompressionMiou, ErrorFeedbackControlShowsResidualMatters) {
  // Aggressive sparsification (1% of coordinates per step) with the
  // residual disabled silently drops 99% of every gradient — training
  // must measurably trail the same codec with error feedback on. This is
  // the control that proves the parity gate above passes BECAUSE of the
  // residual, not because the tiny model shrugs off compression.
  const double with_ef =
      distributed_miou(2, tiny_config(dh::CompressionAlgo::kTopK, 0.01f, true));
  const double without_ef =
      distributed_miou(2, tiny_config(dh::CompressionAlgo::kTopK, 0.01f, false));
  EXPECT_GT(with_ef, without_ef + 0.02)
      << "EF on: " << with_ef << " EF off: " << without_ef;
}

TEST_P(CompressionMiou, ResidualStateSurvivesCheckpointRestore) {
  // Residuals are per-rank transient state and deliberately NOT in the
  // checkpoint (DESIGN.md §12): a restore resets them to zero, which is
  // sound because EF residuals are self-healing (the next step re-absorbs
  // whatever error the codec makes). The gate: save after epoch 0 under
  // int8+EF, restore into a fresh trainer (fresh runtime, empty
  // residuals), finish, and land within 0.02 of the uninterrupted
  // int8 run.
  const dt::TrainConfig config = tiny_config(dh::CompressionAlgo::kInt8);
  TempFile ckpt(param_tag() + "_compress_restore.bin");

  const double uninterrupted = distributed_miou(2, config);

  double resumed = -1.0;
  dm::run_world(functional_world(2), [&](dm::Communicator& comm) {
    dt::HorovodHook hook(comm, config);
    dt::Trainer trainer(config, hook);
    trainer.train_epoch();
    if (comm.rank() == 0) trainer.save_state(ckpt.path);
    comm.barrier();
  });
  dm::run_world(functional_world(2), [&](dm::Communicator& comm) {
    dt::HorovodHook hook(comm, config);
    dt::Trainer trainer(config, hook);
    trainer.load_state(ckpt.path);
    const dt::TrainReport report = trainer.run();
    if (comm.rank() == 0) resumed = report.final_miou();
  });
  ASSERT_GE(resumed, 0.0);
  EXPECT_NEAR(resumed, uninterrupted, 0.02);
}

TEST_P(CompressionMiou, ElasticShrinkUnderInt8ConvergesLikeFp32Elastic) {
  // 4 ranks, rank 2 killed at step 2, int8+EF the whole way: survivors
  // shrink to 3, the HorovodHook rebinds a fresh runtime (residuals for
  // the dead world are dropped via on_world_change), training finishes.
  // The gate compares against the SAME elastic scenario at fp32 — the
  // codec must not corrupt the recovery path.
  auto elastic_miou = [](const dt::TrainConfig& config, const std::string& ckpt_name) {
    TempFile ckpt(ckpt_name);
    double miou = -1.0;
    int recovered_ranks = 0;
    auto options = functional_world(4);
    options.faults.kills = {{/*global_rank=*/2, /*at_step=*/2}};
    dm::run_world(options, [&](dm::Communicator& comm) {
      dt::ElasticConfig elastic;
      elastic.train = config;
      elastic.checkpoint_path = ckpt.path;
      dt::ElasticTrainer driver(comm, elastic);
      const dt::TrainReport report = driver.run();
      if (driver.comm().rank() == 0) {
        miou = report.final_miou();
        recovered_ranks =
            driver.recoveries().empty() ? 0 : driver.recoveries().front().new_size;
      }
    });
    EXPECT_EQ(recovered_ranks, 3);
    return miou;
  };

  const double fp32 =
      elastic_miou(tiny_config(dh::CompressionAlgo::kNone), param_tag() + "_compress_elastic_fp32.bin");
  const double int8 =
      elastic_miou(tiny_config(dh::CompressionAlgo::kInt8), param_tag() + "_compress_elastic_int8.bin");
  ASSERT_GE(fp32, 0.0);
  ASSERT_GE(int8, 0.0);
  EXPECT_GE(int8, fp32 - 0.02);
}

INSTANTIATE_TEST_SUITE_P(Simd, CompressionMiou,
                         ::testing::ValuesIn(dlscale::testing::simd_levels_under_test()),
                         dlscale::testing::simd_param_name);
