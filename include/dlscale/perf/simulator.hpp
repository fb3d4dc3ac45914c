// Performance simulator: distributed training iterations at paper scale.
//
// Combines (a) a per-layer compute timeline derived from a WorkloadSpec
// and the V100 roofline model with (b) the real Horovod negotiation /
// fusion / collective machinery running in timing mode over simmpi. The
// compute and communication timelines overlap exactly the way Horovod's
// background thread overlaps them: gradients enter negotiation at their
// backprop-order ready times, and an iteration ends when both the
// compute stream and the last fused allreduce have finished.
//
// Calibration (DESIGN.md section 5) is confined to one constant per
// workload family: the sustained fraction of V100 fp32 peak. These are
// fitted to the paper's single-GPU anchors (6.7 img/s for DLv3+, 300
// img/s for ResNet-50); everything else — scaling curves, efficiency
// deltas, knob sensitivity — is *derived*, never fitted.
#pragma once

#include <string>
#include <vector>

#include "dlscale/gpu/device.hpp"
#include "dlscale/hvd/autotune.hpp"
#include "dlscale/hvd/horovod.hpp"
#include "dlscale/models/workload.hpp"
#include "dlscale/mpi/comm.hpp"
#include "dlscale/net/profile.hpp"

namespace dlscale::perf {

/// Workload-family calibration constants (fraction of fp32 peak).
struct Calibration {
  double deeplab_efficiency;
  double resnet_efficiency;

  /// Constants fitted to the paper's single-GPU throughput anchors.
  static Calibration paper_defaults();
};

/// Compute timeline of one training iteration on one GPU.
struct IterationProfile {
  double fwd_s = 0.0;
  double bwd_s = 0.0;
  double optimizer_s = 0.0;
  /// Per gradient tensor, in backprop emission order (last layer first):
  std::vector<std::string> grad_names;
  std::vector<std::size_t> grad_bytes;
  std::vector<double> grad_ready_s;  ///< offset from iteration start

  [[nodiscard]] double compute_total_s() const { return fwd_s + bwd_s + optimizer_s; }
};

/// Derive the compute timeline from a workload spec. Gradients are
/// emitted in reverse layer order as their layers' backward kernels
/// retire.
IterationProfile profile_iteration(const models::WorkloadSpec& workload,
                                   const gpu::ComputeModel& gpu);

/// Single-GPU training throughput (img/s) — no communication at all.
double single_gpu_throughput(const models::WorkloadSpec& workload, double flop_efficiency);

/// One distributed-training simulation configuration.
struct ScalingConfig {
  models::WorkloadSpec workload;
  net::MpiProfile mpi_profile;
  hvd::Knobs knobs;
  int nodes = 1;              ///< Summit topology: 6 GPUs per node
  double flop_efficiency = 0.2;
  int warmup_iterations = 1;  ///< cache-warming iterations (excluded)
  int iterations = 3;         ///< measured steady-state iterations
  /// Per-rank, per-iteration multiplicative compute noise (stddev as a
  /// fraction of compute time). Real GPUs jitter 1-3% from clocks, ECC,
  /// input pipeline; synchronous data-parallel training pays the MAX over
  /// ranks each iteration, a loss that grows with scale. 0 disables.
  double compute_jitter = 0.02;
  std::uint64_t jitter_seed = 2020;
  /// Online knob tuning before measurement: after warmup, an
  /// hvd::Autotuner explores from `knobs` until it freezes (or
  /// max_tuning_iterations is hit, at which point it is frozen on the
  /// best seen); the measured iterations then run on the converged knobs.
  hvd::AutotuneOptions autotune{};
  int max_tuning_iterations = 256;
};

/// Result of one simulated configuration.
struct ScalingResult {
  int gpus = 0;
  double iteration_s = 0.0;       ///< mean steady-state iteration time
  double images_per_s = 0.0;      ///< aggregate throughput
  double per_gpu_images_s = 0.0;
  double scaling_efficiency = 0.0;  ///< vs the same workload on 1 GPU
  double comm_overhead_s = 0.0;     ///< iteration_s - pure compute time
  hvd::RuntimeStats hvd_stats;      ///< rank 0's runtime counters
  bool autotuned = false;           ///< config.autotune.enabled
  hvd::Knobs tuned_knobs;           ///< knobs the measured iterations ran on
  int tuning_iterations = 0;        ///< iterations spent tuning (unmeasured)
};

/// Simulate `config.iterations` steady-state training iterations on a
/// Summit-shaped cluster and report throughput/efficiency.
ScalingResult simulate(const ScalingConfig& config);

}  // namespace dlscale::perf
