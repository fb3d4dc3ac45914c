// Online autotuner mechanics: RuntimeStats window arithmetic, staged
// knob application at cycle boundaries, deterministic tuning policies,
// and the collective decision protocol — every rank always runs the same
// knobs, however skewed their gradient ready times are.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "dlscale/hvd/autotune.hpp"
#include "dlscale/net/topology.hpp"
#include "dlscale/util/rng.hpp"

namespace dh = dlscale::hvd;
namespace dm = dlscale::mpi;
namespace dn = dlscale::net;

namespace {

dm::WorldOptions summit(int nodes, bool timing = true) {
  dm::WorldOptions options;
  options.topology = dn::Topology::summit(nodes);
  options.profile = dn::MpiProfile::mvapich2_gdr_like();
  options.timing = timing;
  return options;
}

struct ScopedEnv {
  std::string name;
  ScopedEnv(const std::string& n, const std::string& value) : name(n) {
    ::setenv(n.c_str(), value.c_str(), 1);
  }
  ~ScopedEnv() { ::unsetenv(name.c_str()); }
};

}  // namespace

TEST(RuntimeStats, SnapshotsSubtractIntoWindowDeltas) {
  dh::RuntimeStats later;
  later.cycles = 10;
  later.tensors_negotiated = 40;
  later.fused_batches = 8;
  later.cache_hit_cycles = 3;
  later.bytes_reduced = 1 << 20;
  later.control_bytes = 2048;
  later.stall_warnings = 1;
  dh::RuntimeStats earlier;
  earlier.cycles = 4;
  earlier.tensors_negotiated = 16;
  earlier.fused_batches = 3;
  earlier.cache_hit_cycles = 1;
  earlier.bytes_reduced = 1 << 18;
  earlier.control_bytes = 512;

  const dh::RuntimeStats delta = later - earlier;
  EXPECT_EQ(delta.cycles, 6u);
  EXPECT_EQ(delta.tensors_negotiated, 24u);
  EXPECT_EQ(delta.fused_batches, 5u);
  EXPECT_EQ(delta.cache_hit_cycles, 2u);
  EXPECT_EQ(delta.bytes_reduced, (1u << 20) - (1u << 18));
  EXPECT_EQ(delta.control_bytes, 1536u);
  EXPECT_EQ(delta.stall_warnings, 1u);

  dh::RuntimeStats in_place = later;
  in_place -= earlier;
  EXPECT_EQ(in_place.cycles, delta.cycles);
  EXPECT_EQ(in_place.bytes_reduced, delta.bytes_reduced);
}

TEST(Knobs, FromEnvReadsStallCheckTimelineAndForcedAlgo) {
  ScopedEnv stall("HOROVOD_STALL_CHECK", "42");
  ScopedEnv timeline("HOROVOD_TIMELINE", "/tmp/trace.json");
  ScopedEnv algo("DLSCALE_ALLREDUCE_ALGO", "recursive_doubling");
  const auto knobs = dh::Knobs::from_env();
  EXPECT_EQ(knobs.stall_warning_cycles, 42u);
  EXPECT_TRUE(knobs.timeline);
  ASSERT_TRUE(knobs.algo.has_value());
  EXPECT_EQ(*knobs.algo, dm::AllreduceAlgo::kRecursiveDoubling);
}

TEST(Knobs, FromEnvAutoAlgoKeepsSizeBasedSelection) {
  ScopedEnv algo("DLSCALE_ALLREDUCE_ALGO", "auto");
  dh::Knobs defaults;
  defaults.algo = dm::AllreduceAlgo::kRing;
  const auto knobs = dh::Knobs::from_env(defaults);
  EXPECT_FALSE(knobs.algo.has_value());
}

TEST(Knobs, FromEnvStallCheckZeroDisables) {
  ScopedEnv stall("HOROVOD_STALL_CHECK", "0");
  const auto knobs = dh::Knobs::from_env();
  EXPECT_EQ(knobs.stall_warning_cycles, 0u);
}

TEST(HorovodRuntime, SetKnobsAppliesAtNextCycleBoundary) {
  dm::run_world(1, [](dm::Communicator& comm) {
    dh::Knobs narrow;
    narrow.fusion_threshold = 1;  // every tensor launches alone
    narrow.cycle_time_s = 1e-4;
    narrow.response_cache = false;
    dh::HorovodRuntime runtime(comm, narrow);

    std::array<std::vector<float>, 3> grads;
    auto submit_all = [&] {
      for (int t = 0; t < 3; ++t) {
        grads[static_cast<std::size_t>(t)].assign(8, static_cast<float>(t + 1));
        runtime.submit({"grad." + std::to_string(t), grads[static_cast<std::size_t>(t)]});
      }
    };
    submit_all();
    runtime.synchronize();
    EXPECT_EQ(runtime.stats().fused_batches, 3u);

    dh::Knobs wide = narrow;
    wide.fusion_threshold = 64 << 20;
    runtime.set_knobs(wide);
    // Staged, not applied: no cycle has run since.
    EXPECT_TRUE(runtime.knob_change_pending());
    EXPECT_EQ(runtime.knobs().fusion_threshold, 1u);

    runtime.reset_stats();
    submit_all();
    runtime.synchronize();
    // The first cycle of the new step applied the staged knobs; all three
    // tensors now fuse into one launch.
    EXPECT_FALSE(runtime.knob_change_pending());
    EXPECT_EQ(runtime.knobs().fusion_threshold, std::size_t{64} << 20);
    EXPECT_EQ(runtime.stats().fused_batches, 1u);
  });
}

namespace {

// Separable synthetic cost surface with its optimum inside the default
// tuning space: 8 MiB fusion, 3.5 ms cycle, hierarchical on.
double synthetic_score(const dh::Knobs& knobs) {
  double score = 1.0;
  score += 0.1 * std::abs(std::log2(static_cast<double>(knobs.fusion_threshold) /
                                    static_cast<double>(std::size_t{8} << 20)));
  score += 100.0 * std::abs(knobs.cycle_time_s - 3.5e-3);
  score += knobs.hierarchical_allreduce ? 0.0 : 0.15;
  return score;
}

dh::WindowMeasurement measure(const dh::Knobs& knobs) {
  dh::WindowMeasurement measurement;
  measurement.knobs = knobs;
  measurement.score = synthetic_score(knobs);
  measurement.steps = 1;
  return measurement;
}

}  // namespace

TEST(CoordinateDescentPolicy, FindsOptimumOfSeparableSurface) {
  dh::CoordinateDescentPolicy policy(dh::Knobs::horovod_defaults(), dh::TuningSpace{});
  int proposals = 0;
  while (const auto candidate = policy.propose()) {
    ASSERT_LT(++proposals, 100) << "policy does not terminate";
    policy.observe(measure(*candidate));
  }
  EXPECT_EQ(policy.best().fusion_threshold, std::size_t{8} << 20);
  EXPECT_NEAR(policy.best().cycle_time_s, 3.5e-3, 1e-12);
  EXPECT_TRUE(policy.best().hierarchical_allreduce);
  // Converged: stays done.
  EXPECT_FALSE(policy.propose().has_value());
}

TEST(CoordinateDescentPolicy, ProposalSequenceIsDeterministic) {
  dh::CoordinateDescentPolicy a(dh::Knobs::horovod_defaults(), dh::TuningSpace{});
  dh::CoordinateDescentPolicy b(dh::Knobs::horovod_defaults(), dh::TuningSpace{});
  for (int i = 0; i < 50; ++i) {
    const auto ca = a.propose();
    const auto cb = b.propose();
    ASSERT_EQ(ca.has_value(), cb.has_value()) << "proposal " << i;
    if (!ca) break;
    EXPECT_EQ(ca->fusion_threshold, cb->fusion_threshold);
    EXPECT_DOUBLE_EQ(ca->cycle_time_s, cb->cycle_time_s);
    EXPECT_EQ(ca->hierarchical_allreduce, cb->hierarchical_allreduce);
    a.observe(measure(*ca));
    b.observe(measure(*cb));
  }
}

TEST(CoordinateDescentPolicy, TuningNeverTouchesDataAffectingKnobs) {
  dh::Knobs base;
  base.compression = dh::CompressionAlgo::kFp16;
  base.algo = dm::AllreduceAlgo::kRecursiveDoubling;
  base.response_cache = false;
  dh::CoordinateDescentPolicy policy(base, dh::TuningSpace{});
  while (const auto candidate = policy.propose()) {
    // Candidates explore fusion/cycle/hierarchical only; fp16, the forced
    // algorithm, and the cache setting ride along unchanged.
    EXPECT_EQ(candidate->compression, dh::CompressionAlgo::kFp16);
    ASSERT_TRUE(candidate->algo.has_value());
    EXPECT_EQ(*candidate->algo, dm::AllreduceAlgo::kRecursiveDoubling);
    EXPECT_FALSE(candidate->response_cache);
    policy.observe(measure(*candidate));
  }
}

TEST(GridSearchPolicy, SweepsTheWholeGridAndPicksTheArgmin) {
  dh::TuningSpace space;
  dh::GridSearchPolicy policy(dh::Knobs::horovod_defaults(), space);
  std::size_t proposals = 0;
  while (const auto candidate = policy.propose()) {
    ++proposals;
    policy.observe(measure(*candidate));
  }
  EXPECT_EQ(proposals, space.combinations());
  EXPECT_EQ(policy.best().fusion_threshold, std::size_t{8} << 20);
  EXPECT_NEAR(policy.best().cycle_time_s, 3.5e-3, 1e-12);
  EXPECT_TRUE(policy.best().hierarchical_allreduce);
}

TEST(Autotuner, SurrogateCostRewardsFusionAndCaching) {
  dh::RuntimeStats many_launches;
  many_launches.fused_batches = 283;
  many_launches.cycles = 300;
  many_launches.bytes_reduced = 200 << 20;
  many_launches.control_bytes = 400 << 10;
  dh::RuntimeStats few_launches = many_launches;
  few_launches.fused_batches = 5;
  few_launches.control_bytes = 40 << 10;
  few_launches.cache_hit_cycles = 250;
  EXPECT_LT(dh::Autotuner::surrogate_step_cost(few_launches, 4),
            dh::Autotuner::surrogate_step_cost(many_launches, 4));
}

TEST(Autotuner, AllRanksAgreeOnActiveKnobsUnderSkewedReadyTimes) {
  dm::run_world(summit(1), [](dm::Communicator& comm) {  // 6 ranks, timing on
    dh::Knobs base;
    base.cycle_time_s = 5e-4;
    dh::HorovodRuntime runtime(comm, base);

    dh::AutotuneOptions options;
    options.enabled = true;
    options.window_steps = 2;
    options.space.fusion_thresholds = {1 << 20, 8 << 20};
    options.space.cycle_times_s = {5e-4, 2e-3};
    options.space.hierarchical = {false, true};
    dh::Autotuner tuner(runtime, options);

    constexpr int kTensors = 4;
    std::array<std::vector<float>, kTensors> grads;
    dlscale::util::Rng rng(2020 + static_cast<std::uint64_t>(comm.rank()));

    auto run_step = [&] {
      const double t0 = comm.now();
      // Heavily rank-skewed ready times: each rank's gradients become
      // available at very different virtual moments, so ranks would pick
      // different knobs if any of them tuned locally.
      const double skew = 3e-4 * static_cast<double>(comm.rank());
      for (int t = 0; t < kTensors; ++t) {
        auto& grad = grads[static_cast<std::size_t>(t)];
        grad.assign(256, static_cast<float>(rng.uniform(-1.0, 1.0)));
        runtime.submit({"grad." + std::to_string(t), grad, 0, t0 + skew + 1e-4 * t});
      }
      runtime.synchronize();
      tuner.step_end();
    };

    auto check_agreement = [&] {
      const std::array<double, 3> mine{static_cast<double>(tuner.active().fusion_threshold),
                                       tuner.active().cycle_time_s,
                                       tuner.active().hierarchical_allreduce ? 1.0 : 0.0};
      std::vector<std::byte> all(sizeof(mine) * static_cast<std::size_t>(comm.size()));
      comm.allgather(std::as_bytes(std::span<const double>(mine)), all);
      const auto* fingerprints = reinterpret_cast<const double*>(all.data());
      for (int r = 0; r < comm.size(); ++r) {
        for (int k = 0; k < 3; ++k) {
          ASSERT_EQ(fingerprints[k], fingerprints[3 * r + k])
              << "rank " << r << " disagrees on knob " << k;
        }
      }
    };

    int steps = 0;
    while (!tuner.frozen() && steps < 60) {
      run_step();
      ++steps;
      check_agreement();
    }
    EXPECT_TRUE(tuner.frozen()) << "small space must converge within 60 steps";

    // Frozen means frozen: more steps never change the active knobs.
    const dh::Knobs frozen_knobs = tuner.active();
    for (int i = 0; i < 3; ++i) run_step();
    EXPECT_EQ(tuner.active().fusion_threshold, frozen_knobs.fusion_threshold);
    EXPECT_DOUBLE_EQ(tuner.active().cycle_time_s, frozen_knobs.cycle_time_s);
    EXPECT_EQ(tuner.active().hierarchical_allreduce, frozen_knobs.hierarchical_allreduce);
    check_agreement();
  });
}

TEST(Autotuner, FreezeSwitchesEveryRankToTheBestKnobs) {
  dm::run_world(summit(1), [](dm::Communicator& comm) {
    dh::Knobs base;
    base.cycle_time_s = 1e-3;
    dh::HorovodRuntime runtime(comm, base);
    dh::AutotuneOptions options;
    options.enabled = true;
    options.window_steps = 1;
    dh::Autotuner tuner(runtime, options);

    std::vector<float> grad(64, 1.0f);
    // A handful of tuning steps, then an external freeze mid-search (the
    // simulator does this when its tuning budget runs out).
    for (int step = 0; step < 4; ++step) {
      runtime.submit({"grad", grad});
      runtime.synchronize();
      tuner.step_end();
    }
    EXPECT_FALSE(tuner.frozen());
    tuner.freeze();
    EXPECT_TRUE(tuner.frozen());
    tuner.freeze();  // idempotent
    EXPECT_TRUE(tuner.frozen());
  });
}

// ---- compression as a fourth tuning axis (opt-in, DESIGN.md §12) ----

namespace {

// Codec-aware synthetic surface: the optimum keeps the separable
// fusion/cycle/hierarchy optimum above and prefers int8 on the wire.
double codec_score(const dh::Knobs& knobs) {
  double score = synthetic_score(knobs);
  switch (knobs.compression) {
    case dh::CompressionAlgo::kInt8: break;  // cheapest
    case dh::CompressionAlgo::kFp16: score += 0.05; break;
    case dh::CompressionAlgo::kNone: score += 0.2; break;
    case dh::CompressionAlgo::kTopK: score += 0.4; break;  // EF lag hurts
  }
  return score;
}

dh::WindowMeasurement measure_codec(const dh::Knobs& knobs) {
  dh::WindowMeasurement measurement;
  measurement.knobs = knobs;
  measurement.score = codec_score(knobs);
  measurement.steps = 1;
  return measurement;
}

dh::TuningSpace codec_space() {
  dh::TuningSpace space;
  space.compressions = {dh::CompressionAlgo::kNone, dh::CompressionAlgo::kFp16,
                        dh::CompressionAlgo::kInt8, dh::CompressionAlgo::kTopK};
  return space;
}

}  // namespace

TEST(CoordinateDescentPolicy, ExploresCompressionAxisWhenOptedIn) {
  dh::CoordinateDescentPolicy policy(dh::Knobs::horovod_defaults(), codec_space());
  int proposals = 0;
  while (const auto candidate = policy.propose()) {
    ASSERT_LT(++proposals, 200) << "policy does not terminate";
    policy.observe(measure_codec(*candidate));
  }
  EXPECT_EQ(policy.best().compression, dh::CompressionAlgo::kInt8);
  // The other axes still find the separable optimum.
  EXPECT_EQ(policy.best().fusion_threshold, std::size_t{8} << 20);
  EXPECT_TRUE(policy.best().hierarchical_allreduce);
}

TEST(CoordinateDescentPolicy, EmptyCompressionAxisNeverProposesCodecs) {
  // Default TuningSpace: tuning stays bitwise-invariant — no candidate
  // may flip the wire codec.
  dh::Knobs base = dh::Knobs::horovod_defaults();
  dh::CoordinateDescentPolicy policy(base, dh::TuningSpace{});
  while (const auto candidate = policy.propose()) {
    EXPECT_EQ(candidate->compression, dh::CompressionAlgo::kNone);
    policy.observe(measure(*candidate));
  }
}

TEST(GridSearchPolicy, GridCoversCompressionAxis) {
  const dh::TuningSpace space = codec_space();
  dh::GridSearchPolicy policy(dh::Knobs::horovod_defaults(), space);
  std::size_t proposals = 0;
  std::size_t int8_candidates = 0;
  while (const auto candidate = policy.propose()) {
    ++proposals;
    if (candidate->compression == dh::CompressionAlgo::kInt8) ++int8_candidates;
    policy.observe(measure_codec(*candidate));
  }
  EXPECT_EQ(proposals, space.combinations());
  // Every (fusion, cycle, hierarchy) cell is visited once per codec.
  EXPECT_EQ(int8_candidates, space.combinations() / space.compressions.size());
  EXPECT_EQ(policy.best().compression, dh::CompressionAlgo::kInt8);
}

TEST(Autotuner, SurrogateCostPricesWireBytesNotLogicalBytes) {
  // Two windows reduce the SAME logical gradient volume; the compressed
  // one moved 4x fewer bytes on the wire and must cost less.
  dh::RuntimeStats fp32;
  fp32.fused_batches = 10;
  fp32.cycles = 20;
  fp32.bytes_reduced = 64 << 20;
  fp32.bytes_on_wire = 64 << 20;
  dh::RuntimeStats int8 = fp32;
  int8.bytes_on_wire = 16 << 20;
  EXPECT_LT(dh::Autotuner::surrogate_step_cost(int8, 4),
            dh::Autotuner::surrogate_step_cost(fp32, 4));
}
