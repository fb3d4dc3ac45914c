// Timing-level properties of the Horovod core — the effects the paper's
// tuning relies on: fusion amortises per-launch alpha costs, hierarchical
// allreduce wins at scale on Summit-shaped nodes, cycle time trades
// negotiation overhead against gradient latency.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dlscale/hvd/horovod.hpp"

namespace dh = dlscale::hvd;
namespace dm = dlscale::mpi;
namespace dn = dlscale::net;

namespace {

/// Simulated iteration: submit `tensors` gradient tensors of `bytes` each
/// (timing-only) at ready times spread over `spread_s`, synchronize, and
/// return rank 0's final virtual time.
double run_iteration(int nodes, const dn::MpiProfile& profile, dh::Knobs knobs, int tensors,
                     std::size_t bytes, double spread_s) {
  double elapsed = 0.0;
  dm::WorldOptions options;
  options.topology = dn::Topology::summit(nodes);
  options.profile = profile;
  options.timing = true;
  dm::run_world(options, [&](dm::Communicator& comm) {
    dh::HorovodRuntime runtime(comm, knobs);
    for (int i = 0; i < tensors; ++i) {
      const double ready = spread_s * static_cast<double>(i) / std::max(1, tensors - 1);
      runtime.submit({"grad/t" + std::to_string(i), {}, bytes, ready});
    }
    runtime.synchronize();
    comm.barrier();
    if (comm.rank() == 0) elapsed = comm.now();
  });
  return elapsed;
}

}  // namespace

TEST(HvdTiming, FusionBeatsPerTensorLaunches) {
  // 100 x 1 MiB gradients, all ready immediately. Fusing into 64 MiB
  // batches must beat per-tensor allreduce launches.
  const auto profile = dn::MpiProfile::mvapich2_gdr_like();
  dh::Knobs fused;
  fused.cycle_time_s = 1e-3;
  dh::Knobs unfused = fused;
  unfused.fusion_threshold = 1;
  const double t_fused = run_iteration(2, profile, fused, 100, 1 << 20, 0.0);
  const double t_unfused = run_iteration(2, profile, unfused, 100, 1 << 20, 0.0);
  EXPECT_LT(t_fused, t_unfused);
}

TEST(HvdTiming, HierarchicalWinsOnMultiNodeLargeTensors) {
  // Spectrum-like profile (single rail, staged): flat ring across 6
  // ranks/node floods the NIC; hierarchical reduces intra-node first.
  const auto profile = dn::MpiProfile::spectrum_like();
  dh::Knobs flat;
  flat.cycle_time_s = 1e-3;
  dh::Knobs hier = flat;
  hier.hierarchical_allreduce = true;
  const double t_flat = run_iteration(4, profile, flat, 10, 16 << 20, 0.0);
  const double t_hier = run_iteration(4, profile, hier, 10, 16 << 20, 0.0);
  EXPECT_LT(t_hier, t_flat);
}

TEST(HvdTiming, MvapichProfileBeatsSpectrumOnGpuGradients) {
  // The paper's headline: same model, same Horovod, different MPI library.
  dh::Knobs knobs;
  knobs.cycle_time_s = 1e-3;
  const double t_spectrum =
      run_iteration(4, dn::MpiProfile::spectrum_like(), knobs, 50, 4 << 20, 0.0);
  const double t_mvapich =
      run_iteration(4, dn::MpiProfile::mvapich2_gdr_like(), knobs, 50, 4 << 20, 0.0);
  EXPECT_GT(t_spectrum, 1.5 * t_mvapich);
}

TEST(HvdTiming, HugeCycleTimeDelaysCompletion) {
  // With gradients spread over 10 ms, a 50 ms cycle forces everything to
  // wait for the second wakeup; a 1 ms cycle tracks readiness closely.
  const auto profile = dn::MpiProfile::mvapich2_gdr_like();
  dh::Knobs fast;
  fast.cycle_time_s = 1e-3;
  dh::Knobs slow = fast;
  slow.cycle_time_s = 50e-3;
  const double t_fast = run_iteration(2, profile, fast, 50, 256 << 10, 10e-3);
  const double t_slow = run_iteration(2, profile, slow, 50, 256 << 10, 10e-3);
  EXPECT_LT(t_fast, t_slow);
}

TEST(HvdTiming, TinyCycleTimeCostsMoreCyclesThanModerate) {
  // A 0.1 ms cycle wakes up ~100x during a 10 ms backward pass; count the
  // negotiation rounds to show the overhead the paper tunes away.
  const auto profile = dn::MpiProfile::mvapich2_gdr_like();
  auto cycles_for = [&](double cycle_time) {
    std::uint64_t cycles = 0;
    dm::WorldOptions options;
    options.topology = dn::Topology::summit(2);
    options.profile = profile;
    options.timing = true;
    dm::run_world(options, [&](dm::Communicator& comm) {
      dh::Knobs knobs;
      knobs.cycle_time_s = cycle_time;
      dh::HorovodRuntime runtime(comm, knobs);
      for (int i = 0; i < 50; ++i) {
        const double ready = 10e-3 * static_cast<double>(i) / 49.0;
        runtime.submit({"grad/t" + std::to_string(i), {}, 64 << 10, ready});
      }
      runtime.synchronize();
      if (comm.rank() == 0) cycles = runtime.stats().cycles;
    });
    return cycles;
  };
  const auto fast_cycles = cycles_for(0.1e-3);
  const auto slow_cycles = cycles_for(5e-3);
  EXPECT_GT(fast_cycles, 3 * slow_cycles);
}

TEST(HvdTiming, CacheReducesControlTraffic) {
  const auto profile = dn::MpiProfile::mvapich2_gdr_like();
  auto control_bytes_for = [&](bool cache) {
    std::uint64_t bytes = 0;
    dm::WorldOptions options;
    options.topology = dn::Topology::summit(1);
    options.profile = profile;
    options.timing = true;
    dm::run_world(options, [&](dm::Communicator& comm) {
      dh::Knobs knobs;
      knobs.response_cache = cache;
      knobs.cycle_time_s = 1e-3;
      dh::HorovodRuntime runtime(comm, knobs);
      for (int iter = 0; iter < 5; ++iter) {
        for (int i = 0; i < 40; ++i) {
          runtime.submit({"grad/some_rather_long_layer_name/branch/tensor_" + std::to_string(i),
                          {}, 64 << 10, 0.0});
        }
        runtime.synchronize();
      }
      if (comm.rank() == 0) bytes = runtime.stats().control_bytes;
    });
    return bytes;
  };
  // Name payloads dominate without the cache; the bitvector path sends a
  // fixed small block.
  EXPECT_LT(control_bytes_for(true), control_bytes_for(false));
}

TEST(HorovodTiming, TimingOnlyPricesLikePayload) {
  // A timing-only batch must cost exactly what the same batch costs with
  // real floats: same virtual clock, same wire bytes — for every codec,
  // flat and hierarchical, one tensor and a fused batch.
  struct Cost {
    double now = 0.0;
    std::uint64_t wire_bytes = 0;
  };
  auto run = [](const dh::Knobs& knobs, int tensors, bool payload) {
    Cost cost;
    dm::WorldOptions options;
    options.topology = dn::Topology(2, 2, 1);
    // simmpi books NIC rails and bumps rendezvous senders' clocks in
    // thread order, so a contended run's virtual time varies run to run.
    // All-eager messages on more rails than concurrent transfers make it
    // a pure function of the calls made, which is what this compares.
    options.profile = dn::MpiProfile::mvapich2_gdr_like();
    options.profile.eager_threshold_device = ~std::size_t{0};
    options.profile.eager_threshold_host = ~std::size_t{0};
    options.profile.rails = 8;
    options.timing = true;
    dm::run_world(options, [&](dm::Communicator& comm) {
      dh::HorovodRuntime runtime(comm, knobs);
      std::vector<std::vector<float>> grads(static_cast<std::size_t>(tensors));
      for (int t = 0; t < tensors; ++t) {
        // 70000 floats crosses the pipelined hierarchical threshold.
        auto& grad = grads[static_cast<std::size_t>(t)];
        grad.assign(t == 0 ? 70000 : 1000 + 333 * static_cast<std::size_t>(t),
                    0.01f * static_cast<float>(comm.rank() + t + 1));
        runtime.submit({"grad/t" + std::to_string(t),
                        payload ? std::span<float>(grad) : std::span<float>{},
                        grad.size() * sizeof(float), 0.0});
      }
      runtime.synchronize();
      if (comm.rank() == 0) cost = {comm.now(), runtime.stats().bytes_on_wire};
    });
    return cost;
  };
  for (const auto codec : {dh::CompressionAlgo::kNone, dh::CompressionAlgo::kFp16,
                           dh::CompressionAlgo::kInt8, dh::CompressionAlgo::kTopK}) {
    for (const bool hierarchical : {false, true}) {
      for (const int tensors : {1, 3}) {
        dh::Knobs knobs;
        knobs.cycle_time_s = 1e-4;
        knobs.compression = codec;
        knobs.hierarchical_allreduce = hierarchical;
        const Cost with_data = run(knobs, tensors, true);
        const Cost timing_only = run(knobs, tensors, false);
        SCOPED_TRACE(std::string(dh::to_string(codec)) + (hierarchical ? " hier " : " flat ") +
                     std::to_string(tensors) + " tensor(s)");
        EXPECT_DOUBLE_EQ(timing_only.now, with_data.now);
        EXPECT_EQ(timing_only.wire_bytes, with_data.wire_bytes);
      }
    }
  }
}

TEST(HvdTiming, OverlapHidesCommunicationBehindBackward) {
  // Gradients arriving over a long backward pass should mostly overlap
  // with communication: total time ~ backward duration + tail, far below
  // backward + full serialised comm.
  const auto profile = dn::MpiProfile::mvapich2_gdr_like();
  dh::Knobs knobs;
  knobs.cycle_time_s = 1e-3;
  const double spread = 0.5;  // backward takes 500 ms
  const double t_overlap = run_iteration(2, profile, knobs, 50, 4 << 20, spread);
  // Communication alone (everything ready at t=0):
  const double t_comm = run_iteration(2, profile, knobs, 50, 4 << 20, 0.0);
  EXPECT_LT(t_overlap, spread + t_comm * 0.6);
  EXPECT_GE(t_overlap, spread);
}
