// Thread-count determinism regression: the kernels partition work so that
// every output element keeps its serial accumulation order, so training
// must be *bitwise* reproducible across DLSCALE_NUM_THREADS settings.
// This protects the E6 gradient-parity property — if a kernel ever starts
// combining partial sums in a thread-dependent order, these tests fail.
//
// The whole suite is parameterized over SIMD dispatch levels: the vector
// micro-kernels claim bitwise identity with their scalar twins (DESIGN.md
// §6), so thread-count determinism must hold under each level, and the
// SimdDeterminism tests additionally compare results *across* levels.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "dlscale/data/dataset.hpp"
#include "dlscale/models/deeplab.hpp"
#include "dlscale/nn/optimizer.hpp"
#include "dlscale/tensor/ops.hpp"
#include "dlscale/train/trainer.hpp"
#include "dlscale/util/simd.hpp"
#include "dlscale/util/thread_pool.hpp"
#include "../support/simd_param.hpp"

namespace dd = dlscale::data;
namespace dmo = dlscale::models;
namespace dn = dlscale::nn;
namespace dt = dlscale::tensor;
namespace dtr = dlscale::train;
namespace du = dlscale::util;
namespace dm = dlscale::mpi;

namespace {

struct RunResult {
  std::vector<float> losses;
  std::vector<float> params;
};

/// Five SGD steps of the mini DLv3+ at a given global pool size.
RunResult train_five_steps(int threads) {
  du::set_global_thread_count(threads);
  du::Rng rng(7);
  dmo::MiniDeepLabV3Plus model({.in_channels = 3, .num_classes = 4, .input_size = 16, .width = 4},
                               rng);
  dn::SgdMomentum optimizer(model.parameters(), {});
  const dd::SyntheticShapes dataset(
      {.image_size = 16, .num_classes = 4, .max_shapes = 2, .noise = 0.1f, .seed = 99});

  RunResult result;
  for (int step = 0; step < 5; ++step) {
    const dd::Sample batch =
        dataset.make_batch({static_cast<std::uint64_t>(2 * step),
                            static_cast<std::uint64_t>(2 * step + 1)});
    optimizer.zero_grad();
    const dt::Tensor logits = model.forward(batch.image, /*train=*/true);
    dt::Tensor grad;
    const float loss = dt::softmax_cross_entropy(logits, batch.labels, 255, grad);
    model.backward(grad);
    optimizer.step(0.05);
    result.losses.push_back(loss);
  }
  for (dn::Parameter* p : model.parameters()) {
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
                            << " values differ between thread counts";
}

class Determinism : public dlscale::testing::SimdLevelTest {};

}  // namespace

TEST_P(Determinism, TrainingBitwiseIdenticalAcrossThreadCounts) {
  const RunResult serial = train_five_steps(1);
  const RunResult threaded = train_five_steps(4);
  du::set_global_thread_count(1);
  expect_bitwise_equal(serial.losses, threaded.losses, "per-step losses");
  expect_bitwise_equal(serial.params, threaded.params, "final parameters");
}

TEST_P(Determinism, DistributedTrainingBitwiseIdenticalAcrossThreadCounts) {
  // Rank threads sharing the global pool must not change results either.
  dtr::TrainConfig config;
  config.model = {.in_channels = 3, .num_classes = 4, .input_size = 16, .width = 4};
  config.dataset = {.image_size = 16, .num_classes = 4, .max_shapes = 2, .noise = 0.1f,
                    .seed = 99};
  config.train_samples = 16;
  config.eval_samples = 4;
  config.batch_per_rank = 2;
  config.epochs = 1;
  config.knobs.cycle_time_s = 1e-4;

  auto run = [&](int threads) {
    du::set_global_thread_count(threads);
    std::vector<double> losses;
    dm::run_world(2, [&](dm::Communicator& comm) {
      dtr::HorovodHook hook(comm, config);
      const auto report = dtr::Trainer(config, hook).run();
      if (comm.rank() == 0) {
        for (const auto& e : report.epochs) losses.push_back(e.train_loss);
      }
    });
    return losses;
  };

  const auto serial = run(1);
  const auto threaded = run(4);
  du::set_global_thread_count(1);
  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(serial[i]), std::bit_cast<std::uint64_t>(threaded[i]))
        << "epoch " << i << " loss differs between thread counts";
  }
}

INSTANTIATE_TEST_SUITE_P(SimdLevels, Determinism,
                         ::testing::ValuesIn(
                             dlscale::testing::simd_levels_under_test()),
                         dlscale::testing::simd_param_name);

TEST(SimdDeterminism, TrainingBitwiseIdenticalAcrossSimdLevels) {
  // The cross-level half of the contract: five SGD steps under the AVX2
  // micro-kernels reproduce the scalar twins bit-for-bit.
  if (du::detected_simd_level() == du::SimdLevel::kScalar) {
    GTEST_SKIP() << "host has no vector path to compare against";
  }
  RunResult scalar, vector;
  {
    dlscale::testing::ScopedSimdLevel scoped(du::SimdLevel::kScalar);
    scalar = train_five_steps(2);
  }
  {
    dlscale::testing::ScopedSimdLevel scoped(du::SimdLevel::kAvx2);
    vector = train_five_steps(2);
  }
  du::set_global_thread_count(1);
  expect_bitwise_equal(scalar.losses, vector.losses, "per-step losses");
  expect_bitwise_equal(scalar.params, vector.params, "final parameters");
}

TEST(SimdDeterminism, DistributedTrainingBitwiseIdenticalAcrossSimdLevels) {
  // Acceptance check: a 2-rank Trainer over HorovodHook is bitwise
  // identical between dispatch levels (fp16 fusion-buffer path included
  // via its own parity suite; this covers the default fp32 path).
  if (du::detected_simd_level() == du::SimdLevel::kScalar) {
    GTEST_SKIP() << "host has no vector path to compare against";
  }
  dtr::TrainConfig config;
  config.model = {.in_channels = 3, .num_classes = 4, .input_size = 16, .width = 4};
  config.dataset = {.image_size = 16, .num_classes = 4, .max_shapes = 2, .noise = 0.1f,
                    .seed = 99};
  config.train_samples = 16;
  config.eval_samples = 4;
  config.batch_per_rank = 2;
  config.epochs = 1;
  config.knobs.cycle_time_s = 1e-4;

  auto run = [&](du::SimdLevel level) {
    dlscale::testing::ScopedSimdLevel scoped(level);
    std::vector<double> metrics;
    dm::run_world(2, [&](dm::Communicator& comm) {
      dtr::HorovodHook hook(comm, config);
      const auto report = dtr::Trainer(config, hook).run();
      if (comm.rank() == 0) {
        for (const auto& e : report.epochs) {
          metrics.push_back(e.train_loss);
          metrics.push_back(e.eval_miou);
        }
      }
    });
    return metrics;
  };

  const auto scalar = run(du::SimdLevel::kScalar);
  const auto vector = run(du::SimdLevel::kAvx2);
  ASSERT_EQ(scalar.size(), vector.size());
  ASSERT_FALSE(scalar.empty());
  for (std::size_t i = 0; i < scalar.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(scalar[i]),
              std::bit_cast<std::uint64_t>(vector[i]))
        << "metric " << i << " differs between SIMD levels";
  }
}
