// Horovod-timeline-style tracing (HOROVOD_TIMELINE equivalent).
//
// Simulates one DeepLab-v3+ training iteration on 24 GPUs, recording
// every negotiation round and fused allreduce in virtual time, and writes
// a Chrome-tracing JSON you can load in chrome://tracing or
// https://ui.perfetto.dev to see how communication overlaps backprop.
//
// Usage: ./build/examples/timeline_trace [output.json]
#include <cstdio>
#include <fstream>

#include "dlscale/gpu/device.hpp"
#include "dlscale/hvd/horovod.hpp"
#include "dlscale/models/workload.hpp"
#include "dlscale/perf/simulator.hpp"

using namespace dlscale;

int main(int argc, char** argv) {
  const std::string path = argc > 1 ? argv[1] : "/tmp/dlscale_timeline.json";

  const auto workload = models::WorkloadSpec::deeplab_v3plus(4);
  const double efficiency = perf::Calibration::paper_defaults().deeplab_efficiency;
  const gpu::ComputeModel gpu_model(gpu::DeviceSpec::v100_summit(), efficiency);
  const auto profile = perf::profile_iteration(workload, gpu_model);

  mpi::WorldOptions options;
  options.topology = net::Topology::summit(4);  // 24 GPUs
  options.profile = net::MpiProfile::mvapich2_gdr_like();
  options.timing = true;

  mpi::run_world(options, [&](mpi::Communicator& comm) {
    hvd::Knobs knobs = hvd::Knobs::paper_tuned();
    knobs.timeline = comm.rank() == 0;
    hvd::HorovodRuntime runtime(comm, knobs, gpu_model);
    // One training iteration's gradient stream at backprop ready times.
    for (std::size_t i = 0; i < profile.grad_names.size(); ++i) {
      runtime.submit({profile.grad_names[i], {}, profile.grad_bytes[i], profile.grad_ready_s[i]});
    }
    runtime.synchronize();
    comm.barrier();
    if (comm.rank() == 0) {
      std::ofstream out(path);
      runtime.write_timeline(out);
      std::printf("iteration: fwd %.0f ms + bwd %.0f ms compute; finished at %.0f ms virtual\n",
                  profile.fwd_s * 1e3, profile.bwd_s * 1e3, comm.now() * 1e3);
      std::printf("recorded %llu negotiation cycles and %llu fused allreduces\n",
                  static_cast<unsigned long long>(runtime.stats().cycles),
                  static_cast<unsigned long long>(runtime.stats().fused_batches));
      std::printf("trace written to %s — open in chrome://tracing or ui.perfetto.dev\n",
                  path.c_str());
    }
  });
  return 0;
}
