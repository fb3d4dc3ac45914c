// Performance-simulator properties: single-GPU anchors, scaling
// behaviour, and knob/library ordering — the relationships every
// reproduced figure depends on.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "dlscale/perf/simulator.hpp"

namespace dp = dlscale::perf;
namespace dmo = dlscale::models;
namespace dn = dlscale::net;
namespace dh = dlscale::hvd;

namespace {

dp::ScalingConfig base_config(int nodes, dn::MpiProfile profile, dh::Knobs knobs) {
  dp::ScalingConfig config;
  config.workload = dmo::WorkloadSpec::deeplab_v3plus(4);
  config.nodes = nodes;
  config.flop_efficiency = dp::Calibration::paper_defaults().deeplab_efficiency;
  config.mpi_profile = std::move(profile);
  config.knobs = knobs;
  config.warmup_iterations = 1;
  config.iterations = 2;
  return config;
}

}  // namespace

TEST(Calibration, SingleGpuAnchorsMatchPaper) {
  const auto calibration = dp::Calibration::paper_defaults();
  // Paper: 6.7 img/s for DLv3+ and 300 img/s for ResNet-50 on one V100.
  const double dlv3 = dp::single_gpu_throughput(dmo::WorkloadSpec::deeplab_v3plus(4),
                                                calibration.deeplab_efficiency);
  EXPECT_NEAR(dlv3, 6.7, 0.15);
  const double rn50 = dp::single_gpu_throughput(dmo::WorkloadSpec::resnet50(64),
                                                calibration.resnet_efficiency);
  EXPECT_NEAR(rn50, 300.0, 6.0);
}

TEST(Calibration, ThroughputRatioIsRoughly45x) {
  const auto calibration = dp::Calibration::paper_defaults();
  const double dlv3 = dp::single_gpu_throughput(dmo::WorkloadSpec::deeplab_v3plus(4),
                                                calibration.deeplab_efficiency);
  const double rn50 = dp::single_gpu_throughput(dmo::WorkloadSpec::resnet50(64),
                                                calibration.resnet_efficiency);
  EXPECT_NEAR(rn50 / dlv3, 300.0 / 6.7, 3.0);
}

TEST(IterationProfile, StructureIsSane) {
  const auto workload = dmo::WorkloadSpec::deeplab_v3plus(4);
  const dlscale::gpu::ComputeModel gpu_model(dlscale::gpu::DeviceSpec::v100_summit(), 0.24);
  const auto profile = dp::profile_iteration(workload, gpu_model);
  EXPECT_GT(profile.fwd_s, 0.0);
  // Backward is roughly 2x forward for conv nets.
  EXPECT_NEAR(profile.bwd_s / profile.fwd_s, 2.0, 0.35);
  ASSERT_EQ(profile.grad_names.size(), workload.layers.size());
  // Gradients are emitted in increasing time, starting after forward.
  double prev = profile.fwd_s;
  for (double t : profile.grad_ready_s) {
    EXPECT_GE(t, prev);
    prev = t;
  }
  // First emitted gradient is the LAST layer's.
  EXPECT_EQ(profile.grad_names.front(), workload.layers.back().name);
}

TEST(Simulate, SingleNodeIsNearLinear) {
  auto config = base_config(1, dn::MpiProfile::mvapich2_gdr_like(), dh::Knobs::paper_tuned());
  config.compute_jitter = 0.0;
  const auto result = dp::simulate(config);
  EXPECT_EQ(result.gpus, 6);
  EXPECT_GT(result.scaling_efficiency, 0.95);
  EXPECT_LE(result.scaling_efficiency, 1.02);
}

TEST(Simulate, PaperHeadlineNumbers) {
  // The abstract's committed quantities at 132 GPUs: 92% efficiency with
  // tuned MVAPICH2-GDR, ~68% for default Horovod (from +23.9% / 1.3x),
  // reproduced within a few points.
  const auto tuned =
      dp::simulate(base_config(22, dn::MpiProfile::mvapich2_gdr_like(), dh::Knobs::paper_tuned()));
  EXPECT_NEAR(tuned.scaling_efficiency, 0.92, 0.04);

  const auto fallback =
      dp::simulate(base_config(22, dn::MpiProfile::spectrum_like(), dh::Knobs::horovod_defaults()));
  EXPECT_NEAR(fallback.scaling_efficiency, 0.68, 0.05);

  // +23.9 efficiency points and 1.3x speedup.
  EXPECT_NEAR(tuned.scaling_efficiency - fallback.scaling_efficiency, 0.239, 0.06);
  EXPECT_NEAR(tuned.images_per_s / fallback.images_per_s, 1.3, 0.15);
}

TEST(Simulate, MvapichBeatsSpectrumAtEveryScale) {
  for (int nodes : {2, 8}) {
    const auto spectrum =
        dp::simulate(base_config(nodes, dn::MpiProfile::spectrum_like(), dh::Knobs::horovod_defaults()));
    const auto mvapich = dp::simulate(
        base_config(nodes, dn::MpiProfile::mvapich2_gdr_like(), dh::Knobs::horovod_defaults()));
    // At small scale the two libraries are within noise of each other;
    // allow half an efficiency point of PDES wobble.
    EXPECT_GE(mvapich.scaling_efficiency, spectrum.scaling_efficiency - 0.005)
        << nodes << " nodes";
  }
}

TEST(Simulate, EfficiencyDegradesWithScaleForDefaultConfig) {
  const auto small =
      dp::simulate(base_config(2, dn::MpiProfile::spectrum_like(), dh::Knobs::horovod_defaults()));
  const auto large =
      dp::simulate(base_config(22, dn::MpiProfile::spectrum_like(), dh::Knobs::horovod_defaults()));
  EXPECT_GT(small.scaling_efficiency, large.scaling_efficiency);
}

TEST(Simulate, TunedNeverWorseThanDefault) {
  for (const auto& profile : {dn::MpiProfile::spectrum_like(), dn::MpiProfile::mvapich2_gdr_like()}) {
    const auto with_default = dp::simulate(base_config(8, profile, dh::Knobs::horovod_defaults()));
    const auto with_tuned = dp::simulate(base_config(8, profile, dh::Knobs::paper_tuned()));
    EXPECT_GE(with_tuned.scaling_efficiency, with_default.scaling_efficiency - 0.01)
        << profile.name;
  }
}

TEST(Simulate, ThroughputScalesWithGpus) {
  const auto small =
      dp::simulate(base_config(1, dn::MpiProfile::mvapich2_gdr_like(), dh::Knobs::paper_tuned()));
  const auto large =
      dp::simulate(base_config(4, dn::MpiProfile::mvapich2_gdr_like(), dh::Knobs::paper_tuned()));
  EXPECT_GT(large.images_per_s, 3.0 * small.images_per_s);
}

TEST(Simulate, JitterReducesEfficiency) {
  auto jittered = base_config(4, dn::MpiProfile::mvapich2_gdr_like(), dh::Knobs::paper_tuned());
  jittered.compute_jitter = 0.05;
  auto clean = jittered;
  clean.compute_jitter = 0.0;
  const auto with_jitter = dp::simulate(jittered);
  const auto without = dp::simulate(clean);
  EXPECT_LT(with_jitter.scaling_efficiency, without.scaling_efficiency);
}

TEST(Simulate, ReproducibleWithinPdesTolerance) {
  // Jitter and gradient timelines are seed-deterministic; the only
  // run-to-run variation is NIC-reservation ordering (threads reach their
  // sends in arbitrary real-time order — DESIGN.md "PDES-lite"). Repeat
  // runs must agree to well under a percent.
  const auto config = base_config(2, dn::MpiProfile::mvapich2_gdr_like(), dh::Knobs::paper_tuned());
  const auto a = dp::simulate(config);
  const auto b = dp::simulate(config);
  EXPECT_NEAR(a.iteration_s, b.iteration_s, 0.01 * a.iteration_s);
}

TEST(Simulate, InvalidIterationsThrow) {
  auto config = base_config(1, dn::MpiProfile::ideal(), dh::Knobs{});
  config.iterations = 0;
  EXPECT_THROW(dp::simulate(config), std::invalid_argument);
}

TEST(Simulate, StatsArePopulated) {
  const auto result =
      dp::simulate(base_config(2, dn::MpiProfile::mvapich2_gdr_like(), dh::Knobs::paper_tuned()));
  EXPECT_GT(result.hvd_stats.fused_batches, 0u);
  EXPECT_GT(result.hvd_stats.bytes_reduced, 0u);
  EXPECT_GT(result.iteration_s, 0.0);
  EXPECT_GT(result.comm_overhead_s, 0.0);
}

namespace {

// One pinned simulate() outcome: the headline quantities as exact
// hex-floats and the counters the tuned knobs leave behind.
struct SimPin {
  const char* name;
  double scaling_efficiency;
  double images_per_s;
  double iteration_s;
  std::uint64_t fused_batches;
  int tuning_iterations;
  std::uint64_t fusion_threshold;
};

// A contention-free profile: every message eager (no rendezvous clock
// coupling) and more rails than concurrent transfers with striping off,
// so NIC booking order cannot move the virtual clock and repeat runs are
// bitwise identical.
dn::MpiProfile contention_free(dn::MpiProfile profile) {
  profile.eager_threshold_host = std::size_t{1} << 40;
  profile.eager_threshold_device = std::size_t{1} << 40;
  profile.rails = 64;
  profile.rail_stripe_min = SIZE_MAX;
  return profile;
}

std::vector<std::pair<std::string, dp::ScalingConfig>> pinned_simulations() {
  std::vector<std::pair<std::string, dp::ScalingConfig>> cases;
  cases.emplace_back("2n-mvapich-tuned",
                     base_config(2, contention_free(dn::MpiProfile::mvapich2_gdr_like()),
                                 dh::Knobs::paper_tuned()));
  cases.emplace_back("2n-spectrum-default",
                     base_config(2, contention_free(dn::MpiProfile::spectrum_like()),
                                 dh::Knobs::horovod_defaults()));
  auto tuned = base_config(1, contention_free(dn::MpiProfile::mvapich2_gdr_like()),
                           dh::Knobs::horovod_defaults());
  tuned.autotune.enabled = true;
  tuned.autotune.window_steps = 2;
  tuned.max_tuning_iterations = 12;
  cases.emplace_back("1n-mvapich-autotune", tuned);
  return cases;
}

std::string sim_literal(const std::string& name, const dp::ScalingResult& r) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "{\"%s\", %a, %a, %a, %llu, %d, %llu},", name.c_str(),
                r.scaling_efficiency, r.images_per_s, r.iteration_s,
                static_cast<unsigned long long>(r.hvd_stats.fused_batches), r.tuning_iterations,
                static_cast<unsigned long long>(r.tuned_knobs.fusion_threshold));
  return buf;
}

constexpr SimPin kSimPins[] = {
    {"2n-mvapich-tuned", 0x1.f607da48008f9p-1, 0x1.3b477e548e33ep+6, 0x1.37ccbcd4d305cp-1, 132, 0,
     67108864},
    {"2n-spectrum-default", 0x1.f497e15beb748p-1, 0x1.3a6067662d135p+6, 0x1.38b1eedc2772ap-1, 98, 0,
     67108864},
    {"1n-mvapich-autotune", 0x1.f1229e8a37ff7p-1, 0x1.383473f28e43ap+5, 0x1.3adec1c1d7004p-1, 98,
     12, 67108864},
};

}  // namespace

TEST(Simulate, ContentionFreeRunIsPinned) {
  // Freezes what simulate() computes on the virtual clock, so a refactor
  // of the simulator or of simmpi that changes nothing shows nothing. On
  // a mismatch the observed row is printed in pin-literal form.
  std::size_t checked = 0;
  for (const auto& [name, config] : pinned_simulations()) {
    const dp::ScalingResult result = dp::simulate(config);
    const std::string got = sim_literal(name, result);
    const SimPin* pin = nullptr;
    for (const SimPin& p : kSimPins) {
      if (name == p.name) pin = &p;
    }
    if (pin == nullptr) {
      ADD_FAILURE() << "no pin for " << name << "; observed\n" << got;
      continue;
    }
    ++checked;
    EXPECT_EQ(result.scaling_efficiency, pin->scaling_efficiency) << got;
    EXPECT_EQ(result.images_per_s, pin->images_per_s) << got;
    EXPECT_EQ(result.iteration_s, pin->iteration_s) << got;
    EXPECT_EQ(result.hvd_stats.fused_batches, pin->fused_batches) << got;
    EXPECT_EQ(result.tuning_iterations, pin->tuning_iterations) << got;
    EXPECT_EQ(result.tuned_knobs.fusion_threshold, pin->fusion_threshold) << got;
  }
  EXPECT_EQ(checked, std::size(kSimPins));
}
