// Property-style correctness sweep for every allreduce algorithm across
// world sizes (including non-powers-of-two) and element counts (including
// counts smaller than the world size). Each algorithm must produce the
// exact serial sum for integer data and near-exact for floats.
#include <gtest/gtest.h>

#include <numeric>
#include <tuple>
#include <vector>

#include "dlscale/mpi/comm.hpp"
#include "dlscale/util/rng.hpp"

namespace dm = dlscale::mpi;

namespace {

std::vector<float> rank_data(int rank, std::size_t count) {
  dlscale::util::Rng rng(1000 + static_cast<std::uint64_t>(rank));
  std::vector<float> data(count);
  for (auto& x : data) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return data;
}

std::vector<float> expected_sum(int world, std::size_t count) {
  std::vector<float> acc(count, 0.0f);
  for (int r = 0; r < world; ++r) {
    const auto data = rank_data(r, count);
    for (std::size_t i = 0; i < count; ++i) acc[i] += data[i];
  }
  return acc;
}

}  // namespace

class AllreduceSweep
    : public ::testing::TestWithParam<std::tuple<dm::AllreduceAlgo, int, std::size_t>> {};

TEST_P(AllreduceSweep, MatchesSerialSum) {
  const auto [algo, world, count] = GetParam();
  dm::run_world(world, [&, algo_ = algo, count_ = count](dm::Communicator& comm) {
    auto data = rank_data(comm.rank(), count_);
    comm.allreduce(std::span<float>(data), dm::ReduceOp::kSum, dm::MemSpace::kHost, algo_);
    const auto want = expected_sum(comm.size(), count_);
    ASSERT_EQ(data.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      // Different reduction orders differ only by float rounding.
      EXPECT_NEAR(data[i], want[i], 1e-4) << "element " << i;
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    AlgorithmsWorldsCounts, AllreduceSweep,
    ::testing::Combine(::testing::Values(dm::AllreduceAlgo::kRing,
                                         dm::AllreduceAlgo::kRecursiveDoubling,
                                         dm::AllreduceAlgo::kRabenseifner),
                       ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 12),
                       ::testing::Values(std::size_t{1}, std::size_t{3}, std::size_t{64},
                                         std::size_t{1000})),
    [](const auto& param_info) {
      const auto algo = std::get<0>(param_info.param);
      const char* name = algo == dm::AllreduceAlgo::kRing              ? "Ring"
                         : algo == dm::AllreduceAlgo::kRecursiveDoubling ? "RecDouble"
                                                                         : "Raben";
      return std::string(name) + "_w" + std::to_string(std::get<1>(param_info.param)) + "_n" +
             std::to_string(std::get<2>(param_info.param));
    });

TEST(Allreduce, IntegerSumIsExact) {
  dm::run_world(6, [](dm::Communicator& comm) {
    std::vector<std::int64_t> data(100);
    std::iota(data.begin(), data.end(), comm.rank());
    comm.allreduce(std::span<std::int64_t>(data), dm::ReduceOp::kSum, dm::MemSpace::kHost);
    // Element i = sum over ranks of (i + rank) = 6*i + 15.
    for (std::size_t i = 0; i < data.size(); ++i) {
      EXPECT_EQ(data[i], static_cast<std::int64_t>(6 * i + 15));
    }
  });
}

TEST(Allreduce, MaxOp) {
  dm::run_world(5, [](dm::Communicator& comm) {
    std::vector<int> data{comm.rank(), -comm.rank()};
    comm.allreduce(std::span<int>(data), dm::ReduceOp::kMax, dm::MemSpace::kHost);
    EXPECT_EQ(data[0], 4);
    EXPECT_EQ(data[1], 0);
  });
}

TEST(Allreduce, MinOp) {
  dm::run_world(5, [](dm::Communicator& comm) {
    std::vector<int> data{comm.rank()};
    comm.allreduce(std::span<int>(data), dm::ReduceOp::kMin, dm::MemSpace::kHost);
    EXPECT_EQ(data[0], 0);
  });
}

TEST(Allreduce, DefaultAlgoFollowsProfileSelection) {
  // No explicit algorithm: must still be correct at sizes landing in each
  // of the profile's three regimes.
  for (std::size_t count : {std::size_t{16}, std::size_t{16384}, std::size_t{262144}}) {
    dm::run_world(4, [count](dm::Communicator& comm) {
      std::vector<float> data(count, 1.0f);
      comm.allreduce(std::span<float>(data), dm::ReduceOp::kSum, dm::MemSpace::kHost);
      EXPECT_FLOAT_EQ(data[0], 4.0f);
      EXPECT_FLOAT_EQ(data[count - 1], 4.0f);
    });
  }
}

TEST(HierarchicalAllreduce, MatchesFlatResult) {
  // Summit-shaped world: 2 nodes x 6 GPUs. The two-level data path must
  // produce the same sums as the flat path.
  dm::WorldOptions options;
  options.topology = dlscale::net::Topology::summit(2);
  options.profile = dlscale::net::MpiProfile::mvapich2_gdr_like();
  options.timing = false;
  dm::run_world(options, [](dm::Communicator& comm) {
    auto data = rank_data(comm.rank(), 500);
    comm.hierarchical_allreduce(std::span<float>(data), dm::ReduceOp::kSum, dm::MemSpace::kHost);
    const auto want = expected_sum(comm.size(), 500);
    for (std::size_t i = 0; i < want.size(); ++i) EXPECT_NEAR(data[i], want[i], 1e-4);
  });
}

TEST(HierarchicalAllreduce, RepeatedCallsReuseCachedSubComms) {
  dm::WorldOptions options;
  options.topology = dlscale::net::Topology::summit(2);
  options.profile = dlscale::net::MpiProfile::mvapich2_gdr_like();
  options.timing = false;
  dm::run_world(options, [](dm::Communicator& comm) {
    for (int iter = 0; iter < 3; ++iter) {
      std::vector<float> data(64, 1.0f);
      comm.hierarchical_allreduce(std::span<float>(data), dm::ReduceOp::kSum,
                                  dm::MemSpace::kHost);
      EXPECT_FLOAT_EQ(data[0], 12.0f);
    }
  });
}

TEST(AllreduceSim, RunsWithoutPayloadAndAgreesFunctionally) {
  // Timing-only allreduce moves no data; it must complete for all
  // algorithms and world sizes without deadlock.
  for (int world : {2, 3, 6}) {
    dm::run_world(world, [](dm::Communicator& comm) {
      comm.allreduce_sim(1 << 20, dm::MemSpace::kDevice, dm::AllreduceAlgo::kRing);
      comm.allreduce_sim(4 << 10, dm::MemSpace::kDevice, dm::AllreduceAlgo::kRecursiveDoubling);
      comm.allreduce_sim(256 << 10, dm::MemSpace::kDevice, dm::AllreduceAlgo::kRabenseifner);
    });
  }
}

TEST(AllreduceSim, HierarchicalVariant) {
  dm::WorldOptions options;
  options.topology = dlscale::net::Topology::summit(3);
  options.profile = dlscale::net::MpiProfile::mvapich2_gdr_like();
  options.timing = true;
  dm::run_world(options, [](dm::Communicator& comm) {
    comm.allreduce_sim(16 << 20, dm::MemSpace::kDevice, std::nullopt, /*hierarchical=*/true);
    EXPECT_GT(comm.now(), 0.0);
  });
}

TEST(Allreduce, SingleRankIsIdentity) {
  dm::run_world(1, [](dm::Communicator& comm) {
    std::vector<float> data{3.5f, -1.0f};
    comm.allreduce(std::span<float>(data), dm::ReduceOp::kSum, dm::MemSpace::kHost);
    EXPECT_FLOAT_EQ(data[0], 3.5f);
    EXPECT_FLOAT_EQ(data[1], -1.0f);
  });
}

TEST(Allreduce, EmptySpanIsNoop) {
  dm::run_world(3, [](dm::Communicator& comm) {
    std::vector<float> data;
    comm.allreduce(std::span<float>(data), dm::ReduceOp::kSum, dm::MemSpace::kHost);
    SUCCEED();
  });
}

TEST(HierarchicalAllreduce, PipelinedIntraPhasesCorrectAtLargeSize) {
  // Above 256 KiB the hierarchical path switches to ring reduce-scatter +
  // gather / scatter + allgather intra-node phases; the sums must still
  // be exact.
  dm::WorldOptions options;
  options.topology = dlscale::net::Topology::summit(2);
  options.profile = dlscale::net::MpiProfile::mvapich2_gdr_like();
  options.timing = false;
  dm::run_world(options, [](dm::Communicator& comm) {
    constexpr std::size_t kCount = 100'000;  // 400 KB > pipelined threshold
    auto data = rank_data(comm.rank(), kCount);
    comm.hierarchical_allreduce(std::span<float>(data), dm::ReduceOp::kSum, dm::MemSpace::kHost);
    const auto want = expected_sum(comm.size(), kCount);
    for (std::size_t i = 0; i < kCount; i += 997) {
      ASSERT_NEAR(data[i], want[i], 1e-4) << "element " << i;
    }
    ASSERT_NEAR(data[kCount - 1], want[kCount - 1], 1e-4);
  });
}

TEST(HierarchicalAllreduce, CountSmallerThanNodeSize) {
  // Fewer elements than ranks per node: degenerate segments everywhere.
  dm::WorldOptions options;
  options.topology = dlscale::net::Topology::summit(2);
  options.profile = dlscale::net::MpiProfile::mvapich2_gdr_like();
  options.timing = false;
  dm::run_world(options, [](dm::Communicator& comm) {
    std::vector<float> data{static_cast<float>(comm.rank()), 1.0f};
    comm.hierarchical_allreduce(std::span<float>(data), dm::ReduceOp::kSum, dm::MemSpace::kHost);
    EXPECT_FLOAT_EQ(data[0], 66.0f);  // 0+1+...+11
    EXPECT_FLOAT_EQ(data[1], 12.0f);
  });
}

TEST(ReduceScatter, EachRankGetsItsReducedBlock) {
  constexpr int kWorld = 5;
  constexpr std::size_t kBlock = 7;
  dm::run_world(kWorld, [](dm::Communicator& comm) {
    // data[b*kBlock + j] = rank + b*100 + j; block b's reduced value is
    // sum over ranks = (0+..+4) + 5*(b*100 + j).
    std::vector<float> data(kWorld * kBlock);
    for (int b = 0; b < kWorld; ++b)
      for (std::size_t j = 0; j < kBlock; ++j) {
        data[static_cast<std::size_t>(b) * kBlock + j] =
            static_cast<float>(comm.rank() + b * 100) + static_cast<float>(j);
      }
    std::vector<float> out(kBlock);
    comm.reduce_scatter(std::span<float>(data), std::span<float>(out), dm::ReduceOp::kSum,
                        dm::MemSpace::kHost);
    for (std::size_t j = 0; j < kBlock; ++j) {
      const float want = 10.0f + 5.0f * (static_cast<float>(comm.rank() * 100) +
                                         static_cast<float>(j));
      EXPECT_NEAR(out[j], want, 1e-3) << "rank " << comm.rank() << " j " << j;
    }
  });
}

TEST(ReduceScatter, SizeMismatchThrows) {
  EXPECT_THROW(dm::run_world(2,
                             [](dm::Communicator& comm) {
                               std::vector<float> data(5), out(2);  // 5 != 2*2
                               comm.reduce_scatter(std::span<float>(data),
                                                   std::span<float>(out),
                                                   dm::ReduceOp::kSum, dm::MemSpace::kHost);
                             }),
               std::invalid_argument);
}
