#include "dlscale/perf/simulator.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "dlscale/net/topology.hpp"
#include "dlscale/util/rng.hpp"

namespace dlscale::perf {

Calibration Calibration::paper_defaults() {
  // Fitted against the paper's single-V100 anchors (see bench_single_gpu
  // and tests/perf): DLv3+'s atrous/separable kernels sustain a far lower
  // fraction of peak than ResNet-50's dense 3x3 convolutions — which is
  // exactly why one V100 manages only 6.7 img/s on segmentation vs 300
  // img/s on classification.
  return Calibration{0.2372, 0.5452};
}

IterationProfile profile_iteration(const models::WorkloadSpec& workload,
                                   const gpu::ComputeModel& gpu) {
  IterationProfile profile;
  // Forward pass: layers in order.
  for (const auto& layer : workload.layers) {
    profile.fwd_s += gpu.kernel_time(layer.fwd_flops, layer.activation_bytes);
  }
  // Backward pass: reverse layer order; a layer's gradient tensor is ready
  // when its backward kernel retires.
  double t = profile.fwd_s;
  for (auto it = workload.layers.rbegin(); it != workload.layers.rend(); ++it) {
    t += gpu.kernel_time(it->bwd_flops, 2.0 * it->activation_bytes);
    profile.grad_names.push_back(it->name);
    profile.grad_bytes.push_back(it->param_bytes);
    profile.grad_ready_s.push_back(t);
  }
  profile.bwd_s = t - profile.fwd_s;
  // Optimizer: SGD momentum reads grad + weight + velocity, writes weight
  // + velocity -> ~5 passes over parameter memory.
  const double param_bytes = static_cast<double>(workload.total_param_bytes());
  profile.optimizer_s = gpu.kernel_time(2.0 * param_bytes / 4.0, 5.0 * param_bytes);
  return profile;
}

double single_gpu_throughput(const models::WorkloadSpec& workload, double flop_efficiency) {
  const gpu::ComputeModel gpu(gpu::DeviceSpec::v100_summit(), flop_efficiency);
  const IterationProfile profile = profile_iteration(workload, gpu);
  return static_cast<double>(workload.batch_per_gpu) / profile.compute_total_s();
}

ScalingResult simulate(const ScalingConfig& config) {
  if (config.iterations < 1) throw std::invalid_argument("simulate: iterations must be >= 1");
  const gpu::ComputeModel gpu(gpu::DeviceSpec::v100_summit(), config.flop_efficiency);
  const IterationProfile profile = profile_iteration(config.workload, gpu);

  mpi::WorldOptions options;
  options.topology = net::Topology::summit(config.nodes);
  options.profile = config.mpi_profile;
  options.timing = true;
  const int gpus = options.topology.world_size();

  double mean_iteration = 0.0;
  hvd::RuntimeStats stats;
  hvd::Knobs tuned_knobs = config.knobs;
  int tuning_iterations = 0;

  mpi::run_world(options, [&](mpi::Communicator& comm) {
    hvd::HorovodRuntime runtime(comm, config.knobs, gpu);
    util::Rng jitter_rng =
        util::Rng(config.jitter_seed).child(static_cast<std::uint64_t>(comm.rank()));

    auto run_iteration = [&]() -> double {
      comm.barrier();
      const double t0 = comm.now();
      // This rank's compute speed this iteration (clock/ECC/input noise).
      double scale = 1.0;
      if (config.compute_jitter > 0.0) {
        scale = std::max(0.5, 1.0 + config.compute_jitter * jitter_rng.normal());
      }
      // Register every gradient at its backprop-order ready time; the
      // Horovod cycles overlap negotiation and allreduce with the
      // remaining backward compute exactly as the background thread does.
      for (std::size_t i = 0; i < profile.grad_names.size(); ++i) {
        runtime.submit({profile.grad_names[i], {}, profile.grad_bytes[i],
                        t0 + scale * profile.grad_ready_s[i]});
      }
      runtime.synchronize();
      // The optimizer waits for both streams: backward compute and the
      // last averaged gradient.
      comm.clock().bump_to(t0 + scale * (profile.fwd_s + profile.bwd_s));
      comm.compute(profile.optimizer_s);
      comm.barrier();
      return comm.now() - t0;
    };

    for (int i = 0; i < config.warmup_iterations; ++i) run_iteration();
    int tuned_for = 0;
    if (config.autotune.enabled) {
      // Online tuning: explore until the policy freezes. The Autotuner's
      // broadcast decisions keep frozen(), and so this loop's trip count,
      // identical everywhere.
      hvd::Autotuner tuner(runtime, config.autotune);
      while (!tuner.frozen() && tuned_for < config.max_tuning_iterations) {
        run_iteration();
        tuner.step_end();  // collective at window boundaries
        ++tuned_for;
      }
      tuner.freeze();  // no-op when already converged
    }
    runtime.reset_stats();
    double total = 0.0;
    for (int i = 0; i < config.iterations; ++i) total += run_iteration();

    if (comm.rank() == 0) {
      mean_iteration = total / static_cast<double>(config.iterations);
      stats = runtime.stats();
      tuned_knobs = runtime.knobs();
      tuning_iterations = tuned_for;
    }
  });

  ScalingResult result;
  result.gpus = gpus;
  result.iteration_s = mean_iteration;
  result.per_gpu_images_s = static_cast<double>(config.workload.batch_per_gpu) / mean_iteration;
  result.images_per_s = result.per_gpu_images_s * gpus;
  result.scaling_efficiency =
      result.per_gpu_images_s / single_gpu_throughput(config.workload, config.flop_efficiency);
  result.comm_overhead_s = mean_iteration - profile.compute_total_s();
  result.hvd_stats = stats;
  result.autotuned = config.autotune.enabled;
  result.tuned_knobs = tuned_knobs;
  result.tuning_iterations = tuning_iterations;
  return result;
}

}  // namespace dlscale::perf
