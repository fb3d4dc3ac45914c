// Functional behaviour of the Horovod core: submitted tensors are
// averaged across ranks regardless of fusion/caching/hierarchy settings,
// out-of-order submission is negotiated correctly, and the knobs map
// from HOROVOD_* environment variables.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "dlscale/hvd/horovod.hpp"
#include "dlscale/util/json.hpp"
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

std::vector<float> rank_values(int rank, std::size_t n, std::uint64_t seed) {
  dlscale::util::Rng rng(seed + static_cast<std::uint64_t>(rank));
  std::vector<float> data(n);
  for (auto& x : data) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return data;
}

std::vector<float> averaged(int world, std::size_t n, std::uint64_t seed) {
  std::vector<float> acc(n, 0.0f);
  for (int r = 0; r < world; ++r) {
    const auto v = rank_values(r, n, seed);
    for (std::size_t i = 0; i < n; ++i) acc[i] += v[i];
  }
  for (auto& x : acc) x /= static_cast<float>(world);
  return acc;
}

struct ScopedEnv {
  std::string name;
  ScopedEnv(const std::string& n, const std::string& value) : name(n) {
    ::setenv(n.c_str(), value.c_str(), 1);
  }
  ~ScopedEnv() { ::unsetenv(name.c_str()); }
};

}  // namespace

TEST(Knobs, DefaultsMatchPaperEraHorovod) {
  const auto knobs = dh::Knobs::horovod_defaults();
  EXPECT_EQ(knobs.fusion_threshold, std::size_t{64} << 20);
  EXPECT_NEAR(knobs.cycle_time_s, 5e-3, 1e-9);
  EXPECT_FALSE(knobs.hierarchical_allreduce);
  // The response cache did not exist in the Horovod Summit deployed.
  EXPECT_FALSE(knobs.response_cache);
}

TEST(Knobs, PaperTunedEnablesHierarchy) {
  const auto knobs = dh::Knobs::paper_tuned();
  EXPECT_TRUE(knobs.hierarchical_allreduce);
  EXPECT_LT(knobs.cycle_time_s, 5e-3);
}

TEST(Knobs, FromEnvReadsHorovodVariables) {
  ScopedEnv fusion("HOROVOD_FUSION_THRESHOLD", "8388608");
  ScopedEnv cycle("HOROVOD_CYCLE_TIME", "2.5");
  ScopedEnv hier("HOROVOD_HIERARCHICAL_ALLREDUCE", "1");
  ScopedEnv cache("HOROVOD_CACHE_CAPACITY", "0");
  const auto knobs = dh::Knobs::from_env();
  EXPECT_EQ(knobs.fusion_threshold, std::size_t{8} << 20);
  EXPECT_NEAR(knobs.cycle_time_s, 2.5e-3, 1e-9);
  EXPECT_TRUE(knobs.hierarchical_allreduce);
  EXPECT_FALSE(knobs.response_cache);
}

TEST(Knobs, FromEnvFallsBackToDefaults) {
  const auto knobs = dh::Knobs::from_env(dh::Knobs::paper_tuned());
  EXPECT_TRUE(knobs.hierarchical_allreduce);
}

class HvdConfigs : public ::testing::TestWithParam<std::tuple<bool, bool, std::size_t>> {};

TEST_P(HvdConfigs, AveragesAcrossRanks) {
  const auto [hierarchical, cache, fusion] = GetParam();
  dh::Knobs knobs;
  knobs.hierarchical_allreduce = hierarchical;
  knobs.response_cache = cache;
  knobs.fusion_threshold = fusion;
  knobs.cycle_time_s = 1e-4;

  dm::run_world(summit(2), [&, knobs](dm::Communicator& comm) {
    dh::HorovodRuntime runtime(comm, knobs);
    // Three iterations so the response cache engages.
    for (int iter = 0; iter < 3; ++iter) {
      const std::uint64_t seed = 100 * (iter + 1);
      auto g1 = rank_values(comm.rank(), 300, seed);
      auto g2 = rank_values(comm.rank(), 50, seed + 7);
      auto g3 = rank_values(comm.rank(), 1000, seed + 13);
      runtime.submit({"grad/conv1", std::span<float>(g1), 0, 0.0});
      runtime.submit({"grad/bn1", std::span<float>(g2), 0, 0.0});
      runtime.submit({"grad/conv2", std::span<float>(g3), 0, 0.0});
      runtime.synchronize();
      const auto want1 = averaged(comm.size(), 300, seed);
      const auto want2 = averaged(comm.size(), 50, seed + 7);
      const auto want3 = averaged(comm.size(), 1000, seed + 13);
      for (std::size_t i = 0; i < want1.size(); ++i) ASSERT_NEAR(g1[i], want1[i], 1e-5);
      for (std::size_t i = 0; i < want2.size(); ++i) ASSERT_NEAR(g2[i], want2[i], 1e-5);
      for (std::size_t i = 0; i < want3.size(); ++i) ASSERT_NEAR(g3[i], want3[i], 1e-5);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, HvdConfigs,
    ::testing::Combine(::testing::Bool(), ::testing::Bool(),
                       ::testing::Values(std::size_t{1},          // per-tensor launches
                                         std::size_t{600},        // partial fusion
                                         std::size_t{64} << 20)),  // everything fuses
    [](const auto& param_info) {
      return std::string(std::get<0>(param_info.param) ? "Hier" : "Flat") +
             (std::get<1>(param_info.param) ? "Cache" : "NoCache") + "_f" +
             std::to_string(std::get<2>(param_info.param));
    });

TEST(Horovod, OutOfOrderSubmissionAcrossRanks) {
  // Ranks submit the same tensors in different orders; the coordinator
  // must still produce one consistent execution order.
  dm::run_world(summit(1, /*timing=*/false), [](dm::Communicator& comm) {
    dh::Knobs knobs;
    knobs.cycle_time_s = 1e-4;
    dh::HorovodRuntime runtime(comm, knobs);
    auto a = rank_values(comm.rank(), 64, 1);
    auto b = rank_values(comm.rank(), 64, 2);
    if (comm.rank() % 2 == 0) {
      runtime.submit({"t/a", std::span<float>(a), 0, 0.0});
      runtime.submit({"t/b", std::span<float>(b), 0, 0.0});
    } else {
      runtime.submit({"t/b", std::span<float>(b), 0, 0.0});
      runtime.submit({"t/a", std::span<float>(a), 0, 0.0});
    }
    runtime.synchronize();
    const auto want_a = averaged(comm.size(), 64, 1);
    const auto want_b = averaged(comm.size(), 64, 2);
    for (std::size_t i = 0; i < 64; ++i) {
      ASSERT_NEAR(a[i], want_a[i], 1e-5);
      ASSERT_NEAR(b[i], want_b[i], 1e-5);
    }
  });
}

TEST(Horovod, StaggeredReadinessNegotiatesEventually) {
  // One rank's gradient becomes ready much later (straggler); the
  // coordinator must wait for it and still average correctly.
  dm::run_world(summit(1), [](dm::Communicator& comm) {
    dh::Knobs knobs;
    knobs.cycle_time_s = 1e-3;
    dh::HorovodRuntime runtime(comm, knobs);
    auto g = rank_values(comm.rank(), 128, 5);
    const double ready = comm.rank() == 3 ? 0.05 : 0.0;
    runtime.submit({"t/straggler", std::span<float>(g), 0, ready});
    runtime.synchronize();
    const auto want = averaged(comm.size(), 128, 5);
    for (std::size_t i = 0; i < 128; ++i) ASSERT_NEAR(g[i], want[i], 1e-5);
    // Virtual time must have reached the straggler's readiness.
    EXPECT_GE(comm.now(), 0.05);
  });
}

TEST(Horovod, DuplicateSubmitThrows) {
  dm::run_world(1, [](dm::Communicator& comm) {
    dh::HorovodRuntime runtime(comm, dh::Knobs{});
    std::vector<float> g(4, 1.0f);
    runtime.submit({"x", std::span<float>(g), 0, 0.0});
    EXPECT_THROW(runtime.submit({"x", std::span<float>(g), 0, 0.0}), std::logic_error);
  });
}

TEST(Horovod, UnnamedOrEmptyTensorThrows) {
  dm::run_world(1, [](dm::Communicator& comm) {
    dh::HorovodRuntime runtime(comm, dh::Knobs{});
    std::vector<float> g(4, 1.0f);
    EXPECT_THROW(runtime.submit({"", std::span<float>(g), 0, 0.0}), std::invalid_argument);
    EXPECT_THROW(runtime.submit({"y", {}, 0, 0.0}), std::invalid_argument);
  });
}

TEST(Horovod, StatsCountBatchesAndBytes) {
  dm::run_world(summit(1, /*timing=*/false), [](dm::Communicator& comm) {
    dh::Knobs knobs;
    knobs.fusion_threshold = 64 << 20;  // everything fuses into one batch
    knobs.cycle_time_s = 1e-4;
    dh::HorovodRuntime runtime(comm, knobs);
    auto a = rank_values(comm.rank(), 256, 1);
    auto b = rank_values(comm.rank(), 256, 2);
    runtime.submit({"s/a", std::span<float>(a), 0, 0.0});
    runtime.submit({"s/b", std::span<float>(b), 0, 0.0});
    runtime.synchronize();
    const auto& stats = runtime.stats();
    EXPECT_EQ(stats.fused_batches, 1u);
    EXPECT_EQ(stats.tensors_negotiated, 2u);
    EXPECT_EQ(stats.bytes_reduced, 2u * 256 * 4);
    EXPECT_GT(stats.control_bytes, 0u);
  });
}

TEST(Horovod, FusionThresholdControlsBatchCount) {
  dm::run_world(summit(1, /*timing=*/false), [](dm::Communicator& comm) {
    dh::Knobs knobs;
    knobs.fusion_threshold = 1;  // no fusion: one launch per tensor
    knobs.cycle_time_s = 1e-4;
    dh::HorovodRuntime runtime(comm, knobs);
    std::vector<std::vector<float>> grads;
    for (int i = 0; i < 5; ++i) grads.push_back(rank_values(comm.rank(), 64, 10 + i));
    for (int i = 0; i < 5; ++i) {
      runtime.submit({"f/t" + std::to_string(i), std::span<float>(grads[i]), 0, 0.0});
    }
    runtime.synchronize();
    EXPECT_EQ(runtime.stats().fused_batches, 5u);
  });
}

TEST(Horovod, ResponseCacheEngagesAfterFirstIteration) {
  dm::run_world(summit(1, /*timing=*/false), [](dm::Communicator& comm) {
    dh::Knobs knobs;
    knobs.cycle_time_s = 1e-4;
    dh::HorovodRuntime runtime(comm, knobs);
    for (int iter = 0; iter < 4; ++iter) {
      auto g = rank_values(comm.rank(), 64, 3);
      runtime.submit({"c/t", std::span<float>(g), 0, 0.0});
      runtime.synchronize();
    }
    if (comm.rank() == 0) {
      // Iterations 2..4 should be served by the bitvector path.
      EXPECT_GE(runtime.stats().cache_hit_cycles, 3u);
    }
  });
}

TEST(Horovod, CacheDisabledNeverHits) {
  dm::run_world(summit(1, /*timing=*/false), [](dm::Communicator& comm) {
    dh::Knobs knobs;
    knobs.response_cache = false;
    knobs.cycle_time_s = 1e-4;
    dh::HorovodRuntime runtime(comm, knobs);
    for (int iter = 0; iter < 3; ++iter) {
      auto g = rank_values(comm.rank(), 64, 3);
      runtime.submit({"nc/t", std::span<float>(g), 0, 0.0});
      runtime.synchronize();
    }
    if (comm.rank() == 0) {
      EXPECT_EQ(runtime.stats().cache_hit_cycles, 0u);
    }
  });
}

TEST(Horovod, TimingOnlyModeAdvancesClock) {
  dm::run_world(summit(2), [](dm::Communicator& comm) {
    dh::Knobs knobs;
    knobs.cycle_time_s = 1e-3;
    dh::HorovodRuntime runtime(comm, knobs);
    runtime.submit({"sim/grad", {}, 32 << 20, 0.0});
    runtime.synchronize();
    // 32 MiB across 2 nodes takes milliseconds; plus at least one cycle.
    EXPECT_GT(comm.now(), 1e-3);
    EXPECT_EQ(runtime.stats().bytes_reduced, std::size_t{32} << 20);
  });
}

TEST(Horovod, SynchronizeWithNothingPendingReturnsQuickly) {
  dm::run_world(summit(1, /*timing=*/false), [](dm::Communicator& comm) {
    dh::HorovodRuntime runtime(comm, dh::Knobs{});
    runtime.synchronize();
    SUCCEED();
  });
}

TEST(Horovod, ResetStatsClearsCounters) {
  dm::run_world(1, [](dm::Communicator& comm) {
    dh::HorovodRuntime runtime(comm, dh::Knobs{});
    std::vector<float> g(4, 1.0f);
    runtime.submit({"r/x", std::span<float>(g), 0, 0.0});
    runtime.synchronize();
    EXPECT_GT(runtime.stats().cycles, 0u);
    runtime.reset_stats();
    EXPECT_EQ(runtime.stats().cycles, 0u);
  });
}

TEST(Horovod, BroadcastDistributesRootValues) {
  dm::run_world(summit(1, /*timing=*/false), [](dm::Communicator& comm) {
    dh::HorovodRuntime runtime(comm, dh::Knobs{});
    std::vector<float> weights(300, static_cast<float>(comm.rank() * 100));
    runtime.broadcast(std::span<float>(weights), 0);
    for (float w : weights) ASSERT_FLOAT_EQ(w, 0.0f);  // rank 0's values
  });
}

TEST(Horovod, BroadcastFromNonZeroRoot) {
  dm::run_world(summit(1, /*timing=*/false), [](dm::Communicator& comm) {
    dh::HorovodRuntime runtime(comm, dh::Knobs{});
    std::vector<float> weights(16, static_cast<float>(comm.rank()));
    runtime.broadcast(std::span<float>(weights), 3);
    for (float w : weights) ASSERT_FLOAT_EQ(w, 3.0f);
  });
}

namespace {

// Rank 0's timeline for one tensor named `name`, parsed back.
dlscale::util::json::Value timeline_of(const std::string& name) {
  dlscale::util::json::Value trace;
  dm::run_world(summit(1), [&](dm::Communicator& comm) {
    dh::Knobs knobs;
    knobs.cycle_time_s = 1e-4;
    knobs.timeline = true;
    dh::HorovodRuntime runtime(comm, knobs);
    std::vector<float> g(4096, 1.0f);
    runtime.submit({name, std::span<float>(g)});
    runtime.synchronize();
    if (comm.rank() == 0) {
      std::ostringstream out;
      runtime.write_timeline(out);
      trace = dlscale::util::json::parse(out.str());
    }
  });
  return trace;
}

}  // namespace

TEST(Horovod, TimelineRecordsNegotiationAndAllreduce) {
  const auto trace = timeline_of("tl/grad");
  std::vector<std::string> cats;
  for (const auto& event : trace.as_array()) {
    cats.push_back(event.find("cat")->as_string());
    EXPECT_EQ(event.find("ph")->as_string(), "X");
    EXPECT_GE(event.find("dur")->as_number(), 0.0);
  }
  EXPECT_NE(std::find(cats.begin(), cats.end(), "negotiation"), cats.end());
  ASSERT_NE(std::find(cats.begin(), cats.end(), "allreduce"), cats.end());
  const auto allreduce = std::find(cats.begin(), cats.end(), "allreduce") - cats.begin();
  EXPECT_EQ(trace.as_array()[static_cast<std::size_t>(allreduce)].find("name")->as_string(),
            "tl/grad");
}

TEST(Horovod, TimelineEscapesTensorNames) {
  const std::string name = "conv\"1\\w";
  const auto trace = timeline_of(name);  // parse throws on unescaped bytes
  bool found = false;
  for (const auto& event : trace.as_array()) {
    found = found || event.find("name")->as_string() == name;
  }
  EXPECT_TRUE(found);
}

TEST(Horovod, StallCheckFlagsSlowRank) {
  dm::run_world(summit(1), [](dm::Communicator& comm) {
    dh::Knobs knobs;
    knobs.cycle_time_s = 1e-3;
    knobs.stall_warning_cycles = 20;
    dh::HorovodRuntime runtime(comm, knobs);
    auto g = rank_values(comm.rank(), 64, 9);
    // Rank 5's gradient appears ~100 cycles after everyone else's.
    const double ready = comm.rank() == 5 ? 0.1 : 0.0;
    runtime.submit({"stall/slow", std::span<float>(g), 0, ready});
    runtime.synchronize();
    if (comm.rank() == 0) {
      EXPECT_EQ(runtime.stats().stall_warnings, 1u);
    }
    // Despite the warning, the tensor still averages correctly.
    const auto want = averaged(comm.size(), 64, 9);
    for (std::size_t i = 0; i < 64; ++i) ASSERT_NEAR(g[i], want[i], 1e-5);
  });
}

TEST(Horovod, StallCheckDisabledByZero) {
  dm::run_world(summit(1), [](dm::Communicator& comm) {
    dh::Knobs knobs;
    knobs.cycle_time_s = 1e-3;
    knobs.stall_warning_cycles = 0;
    dh::HorovodRuntime runtime(comm, knobs);
    auto g = rank_values(comm.rank(), 64, 9);
    const double ready = comm.rank() == 5 ? 0.1 : 0.0;
    runtime.submit({"stall/quiet", std::span<float>(g), 0, ready});
    runtime.synchronize();
    if (comm.rank() == 0) {
      EXPECT_EQ(runtime.stats().stall_warnings, 0u);
    }
  });
}

TEST(Horovod, Fp16AllreduceAveragesWithinHalfPrecision) {
  dm::run_world(summit(1, /*timing=*/false), [](dm::Communicator& comm) {
    dh::Knobs knobs;
    knobs.compression = dh::CompressionAlgo::kFp16;
    knobs.cycle_time_s = 1e-4;
    dh::HorovodRuntime runtime(comm, knobs);
    auto g1 = rank_values(comm.rank(), 500, 21);
    auto g2 = rank_values(comm.rank(), 100, 22);
    runtime.submit({"fp16/a", std::span<float>(g1), 0, 0.0});
    runtime.submit({"fp16/b", std::span<float>(g2), 0, 0.0});
    runtime.synchronize();
    const auto want1 = averaged(comm.size(), 500, 21);
    const auto want2 = averaged(comm.size(), 100, 22);
    for (std::size_t i = 0; i < want1.size(); ++i) {
      ASSERT_NEAR(g1[i], want1[i], 5e-3) << i;  // half precision tolerance
    }
    for (std::size_t i = 0; i < want2.size(); ++i) {
      ASSERT_NEAR(g2[i], want2[i], 5e-3) << i;
    }
  });
}

TEST(Horovod, Fp16HalvesSimulatedWireTime) {
  auto elapsed_for = [](bool fp16) {
    double t = 0.0;
    dm::run_world(summit(2), [&](dm::Communicator& comm) {
      dh::Knobs knobs;
      knobs.compression = fp16 ? dh::CompressionAlgo::kFp16 : dh::CompressionAlgo::kNone;
      knobs.cycle_time_s = 1e-4;
      dh::HorovodRuntime runtime(comm, knobs);
      runtime.submit({"fp16/sim", {}, 64 << 20, 0.0});
      runtime.synchronize();
      comm.barrier();
      if (comm.rank() == 0) t = comm.now();
    });
    return t;
  };
  const double full = elapsed_for(false);
  const double half = elapsed_for(true);
  EXPECT_LT(half, 0.75 * full);
}

TEST(Knobs, Fp16FromEnv) {
  ScopedEnv fp16("HOROVOD_FP16_ALLREDUCE", "1");
  EXPECT_EQ(dh::Knobs::from_env().compression, dh::CompressionAlgo::kFp16);
}

TEST(Horovod, MismatchedSubmissionsFailLoudly) {
  // Failure injection: rank 3 "forgets" one tensor — real Horovod hangs
  // and then stalls-checks; our runtime aborts after the (test-shrunk)
  // cycle budget with a diagnostic instead of deadlocking the job.
  ScopedEnv budget("DLSCALE_HVD_MAX_CYCLES", "50");
  EXPECT_THROW(
      dm::run_world(summit(1, /*timing=*/false),
                    [](dm::Communicator& comm) {
                      dh::Knobs knobs;
                      knobs.cycle_time_s = 1e-4;
                      knobs.stall_warning_cycles = 10;
                      dh::HorovodRuntime runtime(comm, knobs);
                      std::vector<float> g(16, 1.0f);
                      if (comm.rank() != 3) {
                        runtime.submit({"missing/tensor", std::span<float>(g)});
                      }
                      runtime.synchronize();
                    }),
      std::runtime_error);
}

TEST(Horovod, NonPositiveMaxCyclesThrowsNamingTheVariable) {
  for (const char* value : {"0", "-5"}) {
    ScopedEnv budget("DLSCALE_HVD_MAX_CYCLES", value);
    try {
      dm::run_world(1, [](dm::Communicator& comm) { dh::HorovodRuntime runtime(comm, {}); });
      FAIL() << "DLSCALE_HVD_MAX_CYCLES=" << value << " accepted";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("DLSCALE_HVD_MAX_CYCLES"), std::string::npos)
          << error.what();
    }
  }
}

TEST(Horovod, SubmitRejectsBytesThatDisagreeWithThePayload) {
  dm::run_world(1, [](dm::Communicator& comm) {
    dh::HorovodRuntime runtime(comm, {});
    std::vector<float> g(16, 1.0f);
    EXPECT_THROW(runtime.submit({"g", std::span<float>(g), 8 * sizeof(float)}),
                 std::invalid_argument);
  });
}

TEST(Horovod, OverlongNameRejectedOnEveryRank) {
  // Names travel with a u16 length prefix. A longer name is refused by
  // submit itself, on every rank, before any negotiation message is sent.
  std::vector<std::string> errors(2);
  std::vector<std::uint64_t> messages(2, ~std::uint64_t{0});
  dm::WorldOptions options;
  options.topology = dn::Topology::single_node(2);
  options.profile = dn::MpiProfile::ideal();
  options.timing = false;
  dm::run_world(options, [&](dm::Communicator& comm) {
    dh::HorovodRuntime runtime(comm, dh::Knobs{});
    std::vector<float> g(4, 1.0f);
    const auto rank = static_cast<std::size_t>(comm.rank());
    try {
      runtime.submit({std::string(70'000, 'n'), std::span<float>(g)});
    } catch (const std::invalid_argument& error) {
      errors[rank] = error.what();
    }
    messages[rank] = comm.stats().messages;
  });
  for (std::size_t rank = 0; rank < 2; ++rank) {
    EXPECT_NE(errors[rank].find("70000"), std::string::npos) << rank << ": " << errors[rank];
    EXPECT_NE(errors[rank].find("65535"), std::string::npos) << rank << ": " << errors[rank];
    EXPECT_EQ(messages[rank], 0u) << "rank " << rank;
  }
}
