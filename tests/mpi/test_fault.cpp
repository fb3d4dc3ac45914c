// Fault-injection tests for simmpi: FaultPlan kills, the RankFailed error
// channel, revoked-communicator semantics, shrink(), and the rejection of
// plans that cannot fire.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "dlscale/mpi/comm.hpp"
#include "dlscale/net/profile.hpp"
#include "dlscale/net/topology.hpp"

namespace dm = dlscale::mpi;

namespace {

dm::WorldOptions functional_world(int ranks) {
  dm::WorldOptions options;
  options.topology = dlscale::net::Topology::single_node(ranks);
  options.profile = dlscale::net::MpiProfile::ideal();
  options.timing = false;
  return options;
}

}  // namespace

TEST(FaultKill, StepKillRaisesRankFailedOnSurvivors) {
  auto options = functional_world(4);
  options.faults.kills = {{/*global_rank=*/2, /*at_step=*/3}};
  std::atomic<int> failures{0};
  dm::run_world(options, [&](dm::Communicator& comm) {
    try {
      for (int step = 0; step < 10; ++step) {
        comm.fault_tick();
        std::vector<double> v{1.0};
        comm.allreduce(std::span<double>(v), dm::ReduceOp::kSum);
      }
      FAIL() << "rank " << comm.rank() << " finished despite injected kill";
    } catch (const dm::RankFailed& e) {
      EXPECT_EQ(e.failed_global_rank, 2);
      EXPECT_FALSE(e.op.empty());
      failures.fetch_add(1);
    }
  });
  // The three survivors each observe the failure; the dead rank exits
  // cleanly inside run_world.
  EXPECT_EQ(failures.load(), 3);
}

TEST(FaultKill, BlockedRecvIsWokenByKill) {
  // Rank 1 blocks on a recv from rank 0 *before* rank 0 dies; the kill
  // must wake it and raise rather than leave it hung forever.
  auto options = functional_world(2);
  options.faults.kills = {{/*global_rank=*/0, /*at_step=*/0}};
  dm::run_world(options, [](dm::Communicator& comm) {
    if (comm.rank() == 0) {
      // Give rank 1 a moment to block, then die.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      comm.fault_tick();
      FAIL() << "rank 0 should have been killed by fault_tick";
    } else {
      std::vector<std::byte> out(8);
      EXPECT_THROW(comm.recv(0, 7, out), dm::RankFailed);
    }
  });
}

TEST(FaultKill, RecvBlockedAcrossKillRaises) {
  // A recv posted while its sender is alive and never matched must raise
  // RankFailed naming that sender and the tag once it dies, not hang or
  // deliver garbage.
  auto options = functional_world(3);
  options.faults.kills = {{/*global_rank=*/1, /*at_step=*/0}};
  std::atomic<bool> posting{false};
  dm::run_world(options, [&](dm::Communicator& comm) {
    if (comm.rank() == 1) {
      while (!posting.load()) std::this_thread::yield();
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      comm.fault_tick();
    } else if (comm.rank() == 2) {
      std::vector<float> theirs(4);
      posting.store(true);
      try {
        comm.recv(1, 11, std::as_writable_bytes(std::span<float>(theirs)));
        FAIL() << "recv completed against a dead sender";
      } catch (const dm::RankFailed& e) {
        EXPECT_EQ(e.failed_global_rank, 1);
        EXPECT_EQ(e.tag, 11);
      }
    }
  });
}

TEST(FaultKill, SendOnRevokedCommunicatorRaises) {
  auto options = functional_world(3);
  options.faults.kills = {{/*global_rank=*/2, /*at_step=*/0}};
  dm::run_world(options, [](dm::Communicator& comm) {
    if (comm.rank() == 2) {
      comm.fault_tick();
    } else {
      // Wait for the death to land, then any op — even a send to a LIVE
      // peer — must raise: the communicator is revoked as a whole.
      while (comm.world_epoch() == 1) std::this_thread::sleep_for(std::chrono::milliseconds(1));
      const int live_peer = comm.rank() == 0 ? 1 : 0;
      std::vector<std::byte> data(4);
      EXPECT_THROW(comm.send(live_peer, 3, data), dm::RankFailed);
      EXPECT_TRUE(comm.revoked());
    }
  });
}

TEST(FaultKill, AliveAndWorldEpochTrackDeaths) {
  auto options = functional_world(4);
  options.faults.kills = {{/*global_rank=*/1, /*at_step=*/1}};
  std::atomic<int> checked{0};  // gates the death on the pre-death asserts
  dm::run_world(options, [&](dm::Communicator& comm) {
    EXPECT_EQ(comm.world_epoch(), 1u);
    EXPECT_EQ(comm.alive(), (std::vector<int>{0, 1, 2, 3}));
    checked.fetch_add(1);
    comm.fault_tick();  // tick 0: nobody dies
    if (comm.rank() == 1) {
      while (checked.load() < 4) std::this_thread::sleep_for(std::chrono::milliseconds(1));
      comm.fault_tick();  // tick 1: rank 1 dies here
      FAIL() << "rank 1 survived its kill step";
    }
    while (comm.world_epoch() == 1) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_EQ(comm.world_epoch(), 2u);
    EXPECT_EQ(comm.alive(), (std::vector<int>{0, 2, 3}));
  });
}

TEST(FaultShrink, ShrinkReDensifiesSurvivors) {
  auto options = functional_world(4);
  options.faults.kills = {{/*global_rank=*/1, /*at_step=*/0}};
  dm::run_world(options, [](dm::Communicator& comm) {
    if (comm.rank() == 1) {
      comm.fault_tick();
      return;  // unreachable; silences lints
    }
    std::vector<double> v{static_cast<double>(comm.rank())};
    try {
      while (true) {
        comm.fault_tick();
        comm.allreduce(std::span<double>(v), dm::ReduceOp::kSum);
      }
    } catch (const dm::RankFailed&) {
    }
    dm::Communicator small = comm.shrink();
    EXPECT_EQ(small.size(), 3);
    // Old relative order preserved, ranks re-densified: global 0,2,3 map
    // to new ranks 0,1,2.
    const std::vector<int> expected_globals{0, 2, 3};
    EXPECT_EQ(small.global_rank(), comm.global_rank());
    for (int r = 0; r < small.size(); ++r) {
      EXPECT_EQ(small.global_rank_of(r), expected_globals[static_cast<std::size_t>(r)]);
    }
    // The rebuilt communicator is fully functional.
    std::vector<double> sum{static_cast<double>(small.rank())};
    small.allreduce(std::span<double>(sum), dm::ReduceOp::kSum);
    EXPECT_DOUBLE_EQ(sum[0], 3.0);  // 0 + 1 + 2
    small.barrier();
  });
}

TEST(FaultShrink, DoubleShrinkSurvivesTwoFailures) {
  auto options = functional_world(4);
  options.faults.kills = {{/*global_rank=*/3, /*at_step=*/0}, {/*global_rank=*/1, /*at_step=*/1}};
  std::atomic<int> completed{0};
  dm::run_world(options, [&](dm::Communicator& comm) {
    dm::Communicator current = comm;
    int my_tick = 0;
    auto step = [&] {
      comm.fault_tick();
      ++my_tick;
      std::vector<double> v{1.0};
      current.allreduce(std::span<double>(v), dm::ReduceOp::kSum);
      return v[0];
    };
    double last = 0.0;
    for (int i = 0; i < 4; ++i) {
      try {
        last = step();
      } catch (const dm::RankFailed&) {
        current = current.shrink();
      } catch (const dm::RankKilled&) {
        throw;  // not reachable: run_world handles the dying thread
      }
    }
    EXPECT_EQ(current.size(), 2);
    EXPECT_DOUBLE_EQ(last, 2.0);
    completed.fetch_add(1);
  });
  EXPECT_EQ(completed.load(), 2);
}

TEST(FaultKill, PlanThatCannotFireIsRejected) {
  // A kill outside the world or at a negative step would leave the run
  // silently healthy; run_world refuses it before any rank starts.
  std::atomic<int> started{0};
  auto expect_rejected = [&](dm::FaultPlan::Kill kill, const std::string& needle) {
    auto options = functional_world(4);
    options.faults.kills = {kill};
    try {
      dm::run_world(options, [&](dm::Communicator&) { started.fetch_add(1); });
      ADD_FAILURE() << "plan with " << needle << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
    }
  };
  expect_rejected({/*global_rank=*/4, /*at_step=*/1}, "global_rank 4");
  expect_rejected({/*global_rank=*/-1, /*at_step=*/1}, "global_rank -1");
  expect_rejected({/*global_rank=*/1, /*at_step=*/-3}, "at_step -3");
  EXPECT_EQ(started.load(), 0);
}

TEST(FaultKill, UninjectedWorldIsUnaffected) {
  // fault_tick and the fault queries are no-ops without a plan.
  dm::run_world(3, [](dm::Communicator& comm) {
    comm.fault_tick();
    EXPECT_EQ(comm.world_epoch(), 1u);
    EXPECT_FALSE(comm.revoked());
    EXPECT_EQ(static_cast<int>(comm.alive().size()), comm.size());
    std::vector<double> v{1.0};
    comm.allreduce(std::span<double>(v), dm::ReduceOp::kSum);
    EXPECT_DOUBLE_EQ(v[0], 3.0);
  });
}
