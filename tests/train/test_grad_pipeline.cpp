// The gradient-ready pipeline: backward streams finalized gradients into
// a GradSink in exact reverse parameters() order with a staggered virtual
// timeline, Horovod sees realistic ready_at values, and the fusion
// threshold becomes observable from real training runs.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "dlscale/models/resnet.hpp"
#include "dlscale/train/trainer.hpp"
#include "../support/simd_param.hpp"

namespace dt = dlscale::train;
namespace dm = dlscale::mpi;
namespace dmo = dlscale::models;
namespace dg = dlscale::gpu;
using dlscale::nn::Parameter;
using dlscale::tensor::Tensor;

namespace {

/// Records every grad_ready notification from a TimedGradStream.
struct Recorded {
  std::vector<std::string> names;
  std::vector<double> ready_at;
};

template <typename Model>
Recorded record_backward(Model& model, const Tensor& input, double efficiency = 0.25) {
  Recorded rec;
  dt::TimedGradStream stream(dg::ComputeModel(dg::DeviceSpec::v100_summit(), efficiency),
                             [&rec](Parameter& p, double t) {
                               rec.names.push_back(p.name);
                               rec.ready_at.push_back(t);
                             });
  const Tensor logits = model.forward(input, /*train=*/true);
  stream.begin_step(0.0);
  model.backward(Tensor::full(logits.shape(), 0.01f), &stream);
  return rec;
}

template <typename Model>
void expect_reverse_parameter_stream(Model& model, const Recorded& rec) {
  const auto params = model.parameters();
  ASSERT_EQ(rec.names.size(), params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    EXPECT_EQ(rec.names[i], params[params.size() - 1 - i]->name) << "position " << i;
  }
  ASSERT_FALSE(rec.ready_at.empty());
  EXPECT_GT(rec.ready_at.front(), 0.0);  // every layer pays launch overhead
  for (std::size_t i = 1; i < rec.ready_at.size(); ++i) {
    EXPECT_GE(rec.ready_at[i], rec.ready_at[i - 1]) << "position " << i;
  }
  EXPECT_GT(rec.ready_at.back(), rec.ready_at.front());  // genuinely staggered
}

dt::TrainConfig tiny_config() {
  dt::TrainConfig config;
  config.model = {.in_channels = 3, .num_classes = 4, .input_size = 16, .width = 4};
  config.dataset = {.image_size = 16, .num_classes = 4, .max_shapes = 2, .noise = 0.1f,
                    .seed = 99};
  config.train_samples = 32;
  config.eval_samples = 8;
  config.batch_per_rank = 2;
  config.epochs = 2;
  config.knobs.cycle_time_s = 1e-4;
  return config;
}

/// Wide enough that one step's gradients (~4 MB) overflow a 2 MiB fusion
/// buffer, with a cycle time long enough that a single negotiation cycle
/// catches the whole backward timeline.
dt::TrainConfig fusion_config(std::size_t fusion_threshold) {
  dt::TrainConfig config;
  config.model = {.in_channels = 3, .num_classes = 4, .input_size = 16, .width = 48};
  config.dataset = {.image_size = 16, .num_classes = 4, .max_shapes = 2, .noise = 0.1f,
                    .seed = 99};
  config.train_samples = 8;
  config.eval_samples = 4;
  config.batch_per_rank = 2;
  config.epochs = 1;
  config.knobs.fusion_threshold = fusion_threshold;
  config.knobs.cycle_time_s = 1.0;
  return config;
}

class GradPipeline : public dlscale::testing::SimdLevelTest {};

}  // namespace

TEST_P(GradPipeline, DeepLabStreamsReverseParameterOrder) {
  dlscale::util::Rng rng(3);
  dmo::MiniDeepLabV3Plus model({.in_channels = 3, .num_classes = 4, .input_size = 16, .width = 4},
                               rng);
  const Tensor input = Tensor::randn({2, 3, 16, 16}, rng);
  const Recorded rec = record_backward(model, input);
  expect_reverse_parameter_stream(model, rec);
}

TEST_P(GradPipeline, SeparableBackboneStreamsReverseParameterOrder) {
  dlscale::util::Rng rng(4);
  dmo::MiniDeepLabV3Plus model({.in_channels = 3, .num_classes = 4, .input_size = 16, .width = 4,
                                .separable_backbone = true},
                               rng);
  const Tensor input = Tensor::randn({1, 3, 16, 16}, rng);
  const Recorded rec = record_backward(model, input);
  expect_reverse_parameter_stream(model, rec);
}

TEST_P(GradPipeline, ResNetStreamsReverseParameterOrder) {
  dlscale::util::Rng rng(5);
  dmo::MiniResNet model({.in_channels = 3, .num_classes = 4, .input_size = 16, .width = 8,
                         .blocks_per_stage = 2},
                        rng);
  const Tensor input = Tensor::randn({2, 3, 16, 16}, rng);
  const Recorded rec = record_backward(model, input);
  expect_reverse_parameter_stream(model, rec);
}

TEST_P(GradPipeline, HigherEfficiencyShortensTheTimeline) {
  dlscale::util::Rng rng_a(6), rng_b(6);
  dmo::MiniDeepLabV3Plus slow({.input_size = 16, .width = 4}, rng_a);
  dmo::MiniDeepLabV3Plus fast({.input_size = 16, .width = 4}, rng_b);
  const Tensor input = Tensor::randn({2, 3, 16, 16}, rng_a);
  const Recorded rec_slow = record_backward(slow, input, /*efficiency=*/0.1);
  const Recorded rec_fast = record_backward(fast, input, /*efficiency=*/0.5);
  ASSERT_EQ(rec_slow.ready_at.size(), rec_fast.ready_at.size());
  EXPECT_GT(rec_slow.ready_at.back(), rec_fast.ready_at.back());
}

TEST_P(GradPipeline, SinkIsOptionalAndGradsMatch) {
  // Streaming must be observation-only: parameter gradients are bitwise
  // identical with and without a sink attached.
  dlscale::util::Rng rng_a(7), rng_b(7);
  dmo::MiniDeepLabV3Plus with_sink({.input_size = 16, .width = 4}, rng_a);
  dmo::MiniDeepLabV3Plus without({.input_size = 16, .width = 4}, rng_b);
  const Tensor input = Tensor::randn({2, 3, 16, 16}, rng_a);
  const Recorded rec = record_backward(with_sink, input);
  ASSERT_FALSE(rec.names.empty());
  const Tensor logits = without.forward(input, /*train=*/true);
  without.backward(Tensor::full(logits.shape(), 0.01f));
  const auto pa = with_sink.parameters();
  const auto pb = without.parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    for (std::size_t j = 0; j < pa[i]->grad.numel(); ++j) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(pa[i]->grad.data()[j]),
                std::bit_cast<std::uint32_t>(pb[i]->grad.data()[j]))
          << pa[i]->name << "[" << j << "]";
    }
  }
}

TEST_P(GradPipeline, FusionThresholdObservableFromRealTraining) {
  // The paper's fusion-threshold knob must be non-degenerate on the real
  // training path: a 2 MiB buffer forces several collective launches per
  // step, a 64 MiB buffer fuses each step into exactly one.
  const auto small = fusion_config(2 << 20);
  const auto large = fusion_config(64 << 20);
  std::uint64_t small_batches = 0, large_batches = 0;
  long steps = 0;
  dm::run_world(2, [&](dm::Communicator& comm) {
    dt::HorovodHook hook(comm, small);
    const auto report = dt::Trainer(small, hook).run();
    if (comm.rank() == 0) {
      small_batches = report.hvd_stats.fused_batches;
      steps = report.steps;
    }
  });
  dm::run_world(2, [&](dm::Communicator& comm) {
    dt::HorovodHook hook(comm, large);
    const auto report = dt::Trainer(large, hook).run();
    if (comm.rank() == 0) large_batches = report.hvd_stats.fused_batches;
  });
  ASSERT_GT(steps, 0);
  EXPECT_EQ(large_batches, static_cast<std::uint64_t>(steps));  // one launch per step
  EXPECT_GT(small_batches, large_batches);
  EXPECT_GT(small_batches, static_cast<std::uint64_t>(steps));  // >1 launch per step
}

TEST_P(GradPipeline, SerialMatchesSingleRankDistributedBitwise) {
  // Allreduce over a world of one (pack, sum, unpack, divide by 1.0f) is
  // a bitwise identity, so the streamed distributed path must reproduce
  // the serial reference exactly.
  const auto config = tiny_config();
  dt::NoComm serial_hook;
  const auto serial = dt::Trainer(config, serial_hook).run();
  dt::TrainReport distributed;
  dm::run_world(1, [&](dm::Communicator& comm) {
    dt::HorovodHook hook(comm, config);
    distributed = dt::Trainer(config, hook).run();
  });
  ASSERT_EQ(serial.epochs.size(), distributed.epochs.size());
  for (std::size_t e = 0; e < serial.epochs.size(); ++e) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(serial.epochs[e].train_loss),
              std::bit_cast<std::uint64_t>(distributed.epochs[e].train_loss))
        << "epoch " << e;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(serial.epochs[e].eval_miou),
              std::bit_cast<std::uint64_t>(distributed.epochs[e].eval_miou))
        << "epoch " << e;
  }
}

INSTANTIATE_TEST_SUITE_P(SimdLevels, GradPipeline,
                         ::testing::ValuesIn(
                             dlscale::testing::simd_levels_under_test()),
                         dlscale::testing::simd_param_name);
