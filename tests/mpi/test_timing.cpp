// Virtual-time behaviour of the simmpi runtime: clocks advance through
// communication according to the cost model, rendezvous couples sender
// and receiver, NIC contention penalises flat vs hierarchical patterns,
// and timing-off worlds stay at t=0 while remaining functionally exact.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "dlscale/mpi/comm.hpp"

namespace dm = dlscale::mpi;
namespace dn = dlscale::net;

namespace {

dm::WorldOptions summit_world(int nodes, dn::MpiProfile profile, bool timing = true) {
  dm::WorldOptions options;
  options.topology = dn::Topology::summit(nodes);
  options.profile = std::move(profile);
  options.timing = timing;
  return options;
}

}  // namespace

TEST(Timing, DisabledKeepsClocksAtZero) {
  dm::run_world(4, [](dm::Communicator& comm) {
    std::vector<float> data(1024, 1.0f);
    comm.allreduce(std::span<float>(data), dm::ReduceOp::kSum, dm::MemSpace::kHost);
    EXPECT_DOUBLE_EQ(comm.now(), 0.0);
    EXPECT_FALSE(comm.timing_enabled());
  });
}

TEST(Timing, ComputeAdvancesOwnClockOnly) {
  auto options = summit_world(1, dn::MpiProfile::mvapich2_gdr_like());
  dm::run_world(options, [](dm::Communicator& comm) {
    if (comm.rank() == 0) comm.compute(1.0);
    comm.barrier();
    if (comm.rank() == 0) {
      EXPECT_GE(comm.now(), 1.0);
    }
  });
}

TEST(Timing, BarrierSynchronisesClocks) {
  auto options = summit_world(1, dn::MpiProfile::mvapich2_gdr_like());
  dm::run_world(options, [](dm::Communicator& comm) {
    // One rank is far ahead; after a barrier, nobody can be behind it.
    if (comm.rank() == 2) comm.compute(0.5);
    comm.barrier();
    EXPECT_GE(comm.now(), 0.5);
  });
}

TEST(Timing, MessageCostScalesWithSize) {
  auto options = summit_world(2, dn::MpiProfile::mvapich2_gdr_like());
  dm::run_world(options, [](dm::Communicator& comm) {
    if (comm.rank() == 0) {
      std::vector<std::byte> small(1 << 10), large(8 << 20);
      comm.send(6, 1, small, dm::MemSpace::kHost);
      comm.send(6, 2, large, dm::MemSpace::kHost);
    } else if (comm.rank() == 6) {
      std::vector<std::byte> small(1 << 10), large(8 << 20);
      comm.recv(0, 1, small, dm::MemSpace::kHost);
      const double after_small = comm.now();
      comm.recv(0, 2, large, dm::MemSpace::kHost);
      const double after_large = comm.now();
      // 8 MiB at ~24 GB/s (striped) ~ 350 us; 1 KiB ~ microseconds.
      EXPECT_GT(after_large - after_small, 50.0 * after_small);
    }
  });
}

TEST(Timing, DeviceStagingSlowerThanGdr) {
  // The same 4 MiB device-buffer transfer must be much slower under the
  // Spectrum profile (staged) than MVAPICH2-GDR (GPUDirect).
  auto run_transfer = [](dn::MpiProfile profile) {
    double elapsed = 0.0;
    auto options = summit_world(2, std::move(profile));
    dm::run_world(options, [&elapsed](dm::Communicator& comm) {
      const std::size_t bytes = 4 << 20;
      if (comm.rank() == 0) {
        std::vector<std::byte> buf(bytes);
        comm.send(6, 1, buf, dm::MemSpace::kDevice);
      } else if (comm.rank() == 6) {
        std::vector<std::byte> buf(bytes);
        comm.recv(0, 1, buf, dm::MemSpace::kDevice);
        elapsed = comm.now();
      }
    });
    return elapsed;
  };
  const double spectrum = run_transfer(dn::MpiProfile::spectrum_like());
  const double mvapich = run_transfer(dn::MpiProfile::mvapich2_gdr_like());
  EXPECT_GT(spectrum, 2.5 * mvapich);
}

TEST(Timing, RendezvousCouplesSenderClock) {
  auto options = summit_world(2, dn::MpiProfile::mvapich2_gdr_like());
  dm::run_world(options, [](dm::Communicator& comm) {
    const std::size_t bytes = 1 << 20;  // rendezvous for host space (>64 KiB)
    if (comm.rank() == 0) {
      std::vector<std::byte> buf(bytes);
      comm.send(6, 1, buf, dm::MemSpace::kHost);
      comm.barrier();
      // Receiver was busy until t=0.1; the rendezvous transfer cannot have
      // released the send buffer before then.
      EXPECT_GE(comm.now(), 0.1);
    } else {
      if (comm.rank() == 6) {
        comm.compute(0.1);
        std::vector<std::byte> buf(bytes);
        comm.recv(0, 1, buf, dm::MemSpace::kHost);
        EXPECT_GE(comm.now(), 0.1);
      }
      comm.barrier();
    }
  });
}

TEST(Timing, EagerDoesNotBlockSender) {
  auto options = summit_world(2, dn::MpiProfile::mvapich2_gdr_like());
  dm::run_world(options, [](dm::Communicator& comm) {
    if (comm.rank() == 0) {
      std::vector<std::byte> buf(256);  // eager-sized
      comm.send(6, 1, buf, dm::MemSpace::kHost);
      // Sender's clock reflects only setup overheads, far below the
      // receiver's busy time.
      EXPECT_LT(comm.now(), 1e-3);
    } else if (comm.rank() == 6) {
      comm.compute(0.05);
      std::vector<std::byte> buf(256);
      comm.recv(0, 1, buf, dm::MemSpace::kHost);
      EXPECT_GE(comm.now(), 0.05);
    }
  });
}

TEST(Timing, RingAllreduceTimeGrowsWithMessageSize) {
  auto options = summit_world(2, dn::MpiProfile::mvapich2_gdr_like());
  dm::run_world(options, [](dm::Communicator& comm) {
    comm.allreduce_sim(64 << 10, dm::MemSpace::kDevice, dm::AllreduceAlgo::kRing);
    const double small = comm.now();
    comm.allreduce_sim(64 << 20, dm::MemSpace::kDevice, dm::AllreduceAlgo::kRing);
    const double large = comm.now() - small;
    EXPECT_GT(large, 10 * small);
  });
}

TEST(Timing, HierarchicalCompetitiveUnderStagedLibrary) {
  // Under a staging-pipeline-bound library (Spectrum) hierarchical and
  // flat device allreduce end up within a small factor of each other
  // (the per-process staging pipeline, not the NIC, is the bottleneck,
  // so concentrating traffic into node leaders neither wins nor loses
  // much). Under MVAPICH2-GDR the topology-aware flat ring wins outright
  // at large sizes.
  auto measure = [](dn::MpiProfile profile, bool hierarchical) {
    double elapsed = 0.0;
    auto options = summit_world(4, std::move(profile));
    dm::run_world(options, [&](dm::Communicator& comm) {
      const std::size_t bytes = 32 << 20;
      comm.allreduce_sim(bytes, dm::MemSpace::kDevice, std::nullopt, hierarchical);
      comm.barrier();
      if (comm.rank() == 0) elapsed = comm.now();
    });
    return elapsed;
  };
  const double spectrum_flat = measure(dn::MpiProfile::spectrum_like(), false);
  const double spectrum_hier = measure(dn::MpiProfile::spectrum_like(), true);
  EXPECT_LT(spectrum_hier, 1.3 * spectrum_flat);
  EXPECT_LT(spectrum_flat, 1.3 * spectrum_hier);
  // Either Spectrum path is far slower than MVAPICH's flat ring.
  const double mvapich_flat = measure(dn::MpiProfile::mvapich2_gdr_like(), false);
  EXPECT_GT(spectrum_flat, 3.0 * mvapich_flat);
}

TEST(Timing, StatsAccumulate) {
  auto options = summit_world(2, dn::MpiProfile::mvapich2_gdr_like());
  dm::run_world(options, [](dm::Communicator& comm) {
    comm.allreduce_sim(1 << 20, dm::MemSpace::kDevice);
    const auto stats = comm.stats();
    EXPECT_GT(stats.messages, 0u);
    EXPECT_GT(stats.bytes, 0u);
    EXPECT_GT(stats.comm_time_s, 0.0);
  });
}

TEST(Timing, TimingOnAndOffProduceIdenticalSums) {
  // The virtual-clock machinery must not perturb data results.
  auto run_sum = [](bool timing) {
    float result = 0.0f;
    auto options = summit_world(1, dn::MpiProfile::mvapich2_gdr_like(), timing);
    dm::run_world(options, [&result](dm::Communicator& comm) {
      std::vector<float> data(257, static_cast<float>(comm.rank() + 1));
      comm.allreduce(std::span<float>(data), dm::ReduceOp::kSum, dm::MemSpace::kDevice);
      if (comm.rank() == 0) result = data[200];
    });
    return result;
  };
  EXPECT_FLOAT_EQ(run_sum(true), run_sum(false));
}

// ---- pinned collective costs ----
//
// Every collective's exact per-rank virtual time, message count, priced
// bytes, comm time and payload digest on three small topologies. The
// profile is contention-free (all-eager, more unstriped rails than
// concurrent transfers), so each value is a pure function of the
// send/recv sequence a collective issues. A refactor of the collective
// engine that keeps each rank's calls, peers, sizes and memory spaces
// must leave every row bitwise unchanged. On a mismatch the failure
// message prints the observed row as a table literal.

namespace {

struct Pin {
  const char* name;
  int rank;
  double now;
  std::uint64_t messages;
  std::uint64_t bytes;
  double comm_time_s;
  std::uint64_t digest;
};

// clang-format off
const std::vector<Pin> kPins = {
    {"1x3/barrier", 0, 0x1.e32f0ee144532p-18, 2, 0, 0x1.e32f0ee144532p-18, 0xcbf29ce484222325ull},
    {"1x3/barrier", 1, 0x1.e32f0ee144532p-18, 2, 0, 0x1.e32f0ee144532p-18, 0xcbf29ce484222325ull},
    {"1x3/barrier", 2, 0x1.e32f0ee144532p-18, 2, 0, 0x1.e32f0ee144532p-18, 0xcbf29ce484222325ull},
    {"1x3/bcast", 0, 0x1.91c7213e18d03p-18, 1, 4000, 0x1.91c7213e18d03p-18, 0x66e482af8411892bull},
    {"1x3/bcast", 1, 0x1.8bf13a6a5f196p-17, 0, 0, 0x1.8bf13a6a5f196p-17, 0x66e482af8411892bull},
    {"1x3/bcast", 2, 0x1.8edc2dd43bf4cp-17, 1, 4000, 0x1.8edc2dd43bf4cp-17, 0x66e482af8411892bull},
    {"1x3/bcast-null", 0, 0x1.91c7213e18d03p-18, 1, 4000, 0x1.91c7213e18d03p-18, 0xcbf29ce484222325ull},
    {"1x3/bcast-null", 1, 0x1.8bf13a6a5f196p-17, 0, 0, 0x1.8bf13a6a5f196p-17, 0xcbf29ce484222325ull},
    {"1x3/bcast-null", 2, 0x1.8edc2dd43bf4cp-17, 1, 4000, 0x1.8edc2dd43bf4cp-17, 0xcbf29ce484222325ull},
    {"1x3/bcast_blob", 0, 0x1.428debb9fbf9ap-19, 1, 148, 0x1.428debb9fbf9ap-19, 0x96e4b37cac6e65a5ull},
    {"1x3/bcast_blob", 1, 0x1.421f5f40d8376p-18, 0, 0, 0x1.421f5f40d8376p-18, 0x96e4b37cac6e65a5ull},
    {"1x3/bcast_blob", 2, 0x1.4256a57d6a188p-18, 1, 148, 0x1.4256a57d6a188p-18, 0x96e4b37cac6e65a5ull},
    {"1x3/gather_blobs", 0, 0x1.421f5f40d8376p-19, 0, 0, 0x1.421f5f40d8376p-19, 0xcbf29ce484222325ull},
    {"1x3/gather_blobs", 1, 0x1.e32f0ee144531p-19, 2, 40, 0x1.e32f0ee144531p-19, 0xdf98a7082948f27eull},
    {"1x3/gather_blobs", 2, 0x1.421f5f40d8376p-19, 0, 0, 0x1.421f5f40d8376p-19, 0xcbf29ce484222325ull},
    {"1x3/allgather", 0, 0x1.63ad4e8244128p-16, 2, 800, 0x1.63ad4e8244128p-16, 0x1cacf67efee1b05full},
    {"1x3/allgather", 1, 0x1.63ad4e8244128p-16, 2, 800, 0x1.63ad4e8244128p-16, 0x1cacf67efee1b05full},
    {"1x3/allgather", 2, 0x1.63ad4e8244128p-16, 2, 800, 0x1.63ad4e8244128p-16, 0x1cacf67efee1b05full},
    {"1x3/allgather-null", 0, 0x1.63ad4e8244128p-16, 2, 800, 0x1.63ad4e8244128p-16, 0xcbf29ce484222325ull},
    {"1x3/allgather-null", 1, 0x1.63ad4e8244128p-16, 2, 800, 0x1.63ad4e8244128p-16, 0xcbf29ce484222325ull},
    {"1x3/allgather-null", 2, 0x1.63ad4e8244128p-16, 2, 800, 0x1.63ad4e8244128p-16, 0xcbf29ce484222325ull},
    {"1x3/scatter", 0, 0x1.8c869e4c58121p-18, 1, 400, 0x1.8c869e4c58121p-18, 0x26f817364eee0ab6ull},
    {"1x3/scatter", 1, 0x1.8bf13a6a5f196p-17, 0, 0, 0x1.8bf13a6a5f196p-17, 0xdfbc2916e424d013ull},
    {"1x3/scatter", 2, 0x1.8c3bec5b5b95bp-17, 1, 400, 0x1.8c3bec5b5b95bp-17, 0x7e89783637e85a9aull},
    {"1x3/gather", 0, 0x1.8bf13a6a5f196p-18, 0, 0, 0x1.8bf13a6a5f196p-18, 0xcbf29ce484222325ull},
    {"1x3/gather", 1, 0x1.63f80073408edp-17, 2, 800, 0x1.63f80073408edp-17, 0x1cacf67efee1b05full},
    {"1x3/gather", 2, 0x1.8bf13a6a5f196p-18, 0, 0, 0x1.8bf13a6a5f196p-18, 0xcbf29ce484222325ull},
    {"1x3/alltoall", 0, 0x1.63ad4e8244128p-16, 2, 400, 0x1.63ad4e8244128p-16, 0x3f175a9d99aa3148ull},
    {"1x3/alltoall", 1, 0x1.63ad4e8244128p-16, 2, 400, 0x1.63ad4e8244128p-16, 0x390ad23f99580fbaull},
    {"1x3/alltoall", 2, 0x1.63ad4e8244128p-16, 2, 400, 0x1.63ad4e8244128p-16, 0x7834dff0450977fdull},
    {"1x3/reduce", 0, 0x1.8bf13a6a5f196p-18, 0, 0, 0x1.8bf13a6a5f196p-18, 0x91955800c94478c7ull},
    {"1x3/reduce", 1, 0x1.67efdada43f6ap-17, 2, 8000, 0x1.67efdada43f6ap-17, 0x9a39f8db992e6f11ull},
    {"1x3/reduce", 2, 0x1.8bf13a6a5f196p-18, 0, 0, 0x1.8bf13a6a5f196p-18, 0x4394715e0b107cf7ull},
    {"1x3/reduce_scatter", 0, 0x1.0aca91e7a7214p-15, 3, 1200, 0x1.0aca91e7a7214p-15, 0x25fe3020a4d8045aull},
    {"1x3/reduce_scatter", 1, 0x1.0aca91e7a7214p-15, 3, 1200, 0x1.0aca91e7a7214p-15, 0xdbd4494f298292a8ull},
    {"1x3/reduce_scatter", 2, 0x1.0aca91e7a7214p-15, 3, 1200, 0x1.0aca91e7a7214p-15, 0xf072d82103e82c22ull},
    {"1x3/allreduce-ring", 0, 0x1.63c9e9419c5d6p-15, 4, 5332, 0x1.63c9e9419c5d6p-15, 0x5969f0188a5ec2a4ull},
    {"1x3/allreduce-ring", 1, 0x1.63c9f4405c4e2p-15, 4, 5336, 0x1.63c9f4405c4e2p-15, 0x5969f0188a5ec2a4ull},
    {"1x3/allreduce-ring", 2, 0x1.63c9f4405c4e2p-15, 4, 5332, 0x1.63c9f4405c4e2p-15, 0x5969f0188a5ec2a4ull},
    {"1x3/allreduce-ring-null", 0, 0x1.63c9e9419c5d6p-15, 4, 5332, 0x1.63c9e9419c5d6p-15, 0xcbf29ce484222325ull},
    {"1x3/allreduce-ring-null", 1, 0x1.63c9f4405c4e2p-15, 4, 5336, 0x1.63c9f4405c4e2p-15, 0xcbf29ce484222325ull},
    {"1x3/allreduce-ring-null", 2, 0x1.63c9f4405c4e2p-15, 4, 5332, 0x1.63c9f4405c4e2p-15, 0xcbf29ce484222325ull},
    {"1x3/allreduce-recursive_doubling", 0, 0x1.7b6604573ff5bp-16, 1, 4000, 0x1.7b6604573ff5cp-16, 0x5c6879922459abaeull},
    {"1x3/allreduce-recursive_doubling", 1, 0x1.79f08aa25188p-16, 2, 8000, 0x1.79f08aa25188p-16, 0x5c6879922459abaeull},
    {"1x3/allreduce-recursive_doubling", 2, 0x1.931eba2c3bd8ep-17, 1, 4000, 0x1.931eba2c3bd8ep-17, 0x5c6879922459abaeull},
    {"1x3/allreduce-recursive_doubling-null", 0, 0x1.7b6604573ff5bp-16, 1, 4000, 0x1.7b6604573ff5cp-16, 0xcbf29ce484222325ull},
    {"1x3/allreduce-recursive_doubling-null", 1, 0x1.79f08aa25188p-16, 2, 8000, 0x1.79f08aa25188p-16, 0xcbf29ce484222325ull},
    {"1x3/allreduce-recursive_doubling-null", 2, 0x1.931eba2c3bd8ep-17, 1, 4000, 0x1.931eba2c3bd8ep-17, 0xcbf29ce484222325ull},
    {"1x3/allreduce-rabenseifner", 0, 0x1.1688dc3d4ecefp-15, 1, 4000, 0x1.1688dc3d4ecefp-15, 0x5c6879922459abaeull},
    {"1x3/allreduce-rabenseifner", 1, 0x1.15ce1f62d7981p-15, 3, 8000, 0x1.15ce1f62d7981p-15, 0x5c6879922459abaeull},
    {"1x3/allreduce-rabenseifner", 2, 0x1.7a80545f045dcp-16, 2, 4000, 0x1.7a80545f045dcp-16, 0x5c6879922459abaeull},
    {"1x3/allreduce-rabenseifner-null", 0, 0x1.1688dc3d4ecefp-15, 1, 4000, 0x1.1688dc3d4ecefp-15, 0xcbf29ce484222325ull},
    {"1x3/allreduce-rabenseifner-null", 1, 0x1.15ce1f62d7981p-15, 3, 8000, 0x1.15ce1f62d7981p-15, 0xcbf29ce484222325ull},
    {"1x3/allreduce-rabenseifner-null", 2, 0x1.7a80545f045dcp-16, 2, 4000, 0x1.7a80545f045dcp-16, 0xcbf29ce484222325ull},
    {"1x3/allreduce-ring-5", 0, 0x1.63ad6f7e83e4bp-15, 4, 24, 0x1.63ad6f7e83e4bp-15, 0x68417f879517be8cull},
    {"1x3/allreduce-ring-5", 1, 0x1.63ad6f7e83e4bp-15, 4, 28, 0x1.63ad6f7e83e4bp-15, 0x68417f879517be8cull},
    {"1x3/allreduce-ring-5", 2, 0x1.63ad7a7d43d56p-15, 4, 28, 0x1.63ad7a7d43d56p-15, 0x68417f879517be8cull},
    {"1x3/hierarchical-1000", 0, 0x1.49e77d6dde548p-15, 6, 8016, 0x1.49e77d6dde548p-15, 0x5c6879922459abaeull},
    {"1x3/hierarchical-1000", 1, 0x1.4aa23a48558b6p-15, 3, 4024, 0x1.4aa23a48558b6p-15, 0x5c6879922459abaeull},
    {"1x3/hierarchical-1000", 2, 0x1.192412fb09a83p-15, 3, 4024, 0x1.192412fb09a83p-15, 0x5c6879922459abaeull},
    {"1x3/hierarchical-1000-null", 0, 0x1.49e77d6dde548p-15, 6, 8016, 0x1.49e77d6dde548p-15, 0xcbf29ce484222325ull},
    {"1x3/hierarchical-1000-null", 1, 0x1.4aa23a48558b6p-15, 3, 4024, 0x1.4aa23a48558b6p-15, 0xcbf29ce484222325ull},
    {"1x3/hierarchical-1000-null", 2, 0x1.192412fb09a83p-15, 3, 4024, 0x1.192412fb09a83p-15, 0xcbf29ce484222325ull},
    {"1x3/hierarchical-70000", 0, 0x1.62aed24b2f136p-14, 10, 560012, 0x1.62aed24b2f136p-14, 0x2751ce39c79d3ff2ull},
    {"1x3/hierarchical-70000", 1, 0x1.577ae75afef79p-14, 7, 466692, 0x1.577ae75afef79p-14, 0x2751ce39c79d3ff2ull},
    {"1x3/hierarchical-70000", 2, 0x1.6b31659d9c18dp-14, 7, 466692, 0x1.6b31659d9c18dp-14, 0x2751ce39c79d3ff2ull},
    {"1x3/hierarchical-70000-null", 0, 0x1.62aed24b2f136p-14, 10, 560012, 0x1.62aed24b2f136p-14, 0xcbf29ce484222325ull},
    {"1x3/hierarchical-70000-null", 1, 0x1.577ae75afef79p-14, 7, 466692, 0x1.577ae75afef79p-14, 0xcbf29ce484222325ull},
    {"1x3/hierarchical-70000-null", 2, 0x1.6b31659d9c18dp-14, 7, 466692, 0x1.6b31659d9c18dp-14, 0xcbf29ce484222325ull},
    {"2x2/barrier", 0, 0x1.16807505659a9p-17, 2, 0, 0x1.16807505659a9p-17, 0xcbf29ce484222325ull},
    {"2x2/barrier", 1, 0x1.19db7358bd308p-17, 2, 0, 0x1.19db7358bd308p-17, 0xcbf29ce484222325ull},
    {"2x2/barrier", 2, 0x1.16807505659a9p-17, 2, 0, 0x1.16807505659a9p-17, 0xcbf29ce484222325ull},
    {"2x2/barrier", 3, 0x1.19db7358bd308p-17, 2, 0, 0x1.19db7358bd308p-17, 0xcbf29ce484222325ull},
    {"2x2/bcast", 0, 0x1.ca6471fec9e61p-17, 1, 4000, 0x1.ca6471fec9e61p-17, 0x66e482af8411892bull},
    {"2x2/bcast", 1, 0x1.b43526527a205p-17, 0, 0, 0x1.b43526527a205p-17, 0x66e482af8411892bull},
    {"2x2/bcast", 2, 0x1.bf4ccc28a2033p-17, 1, 4000, 0x1.bf4ccc28a2033p-17, 0x66e482af8411892bull},
    {"2x2/bcast", 3, 0x1.bf4ccc28a2033p-17, 1, 4000, 0x1.bf4ccc28a2033p-17, 0x66e482af8411892bull},
    {"2x2/bcast-null", 0, 0x1.ca6471fec9e61p-17, 1, 4000, 0x1.ca6471fec9e61p-17, 0xcbf29ce484222325ull},
    {"2x2/bcast-null", 1, 0x1.b43526527a205p-17, 0, 0, 0x1.b43526527a205p-17, 0xcbf29ce484222325ull},
    {"2x2/bcast-null", 2, 0x1.bf4ccc28a2033p-17, 1, 4000, 0x1.bf4ccc28a2033p-17, 0xcbf29ce484222325ull},
    {"2x2/bcast-null", 3, 0x1.bf4ccc28a2033p-17, 1, 4000, 0x1.bf4ccc28a2033p-17, 0xcbf29ce484222325ull},
    {"2x2/bcast_blob", 0, 0x1.944b7ba4767a4p-18, 1, 148, 0x1.944b7ba4767a4p-18, 0x96e4b37cac6e65a5ull},
    {"2x2/bcast_blob", 1, 0x1.92a737110e454p-18, 0, 0, 0x1.92a737110e454p-18, 0x96e4b37cac6e65a5ull},
    {"2x2/bcast_blob", 2, 0x1.9379595ac25fcp-18, 1, 148, 0x1.9379595ac25fcp-18, 0x96e4b37cac6e65a5ull},
    {"2x2/bcast_blob", 3, 0x1.9379595ac25fcp-18, 1, 148, 0x1.9379595ac25fcp-18, 0x96e4b37cac6e65a5ull},
    {"2x2/gather_blobs", 0, 0x1.853b3dc3afedap-19, 0, 0, 0x1.853b3dc3afedap-19, 0xcbf29ce484222325ull},
    {"2x2/gather_blobs", 1, 0x1.63ad4e8244128p-18, 3, 100, 0x1.63ad4e8244128p-18, 0x92c14499e5ea6828ull},
    {"2x2/gather_blobs", 2, 0x1.92a737110e454p-19, 0, 0, 0x1.92a737110e454p-19, 0xcbf29ce484222325ull},
    {"2x2/gather_blobs", 3, 0x1.92a737110e454p-19, 0, 0, 0x1.92a737110e454p-19, 0xcbf29ce484222325ull},
    {"2x2/allgather", 0, 0x1.1757349a3b8p-15, 3, 1200, 0x1.1757349a3b8p-15, 0xac1318a9ff4e0259ull},
    {"2x2/allgather", 1, 0x1.19db7358bd307p-15, 3, 1200, 0x1.19db7358bd307p-15, 0xac1318a9ff4e0259ull},
    {"2x2/allgather", 2, 0x1.1757349a3b8p-15, 3, 1200, 0x1.1757349a3b8p-15, 0xac1318a9ff4e0259ull},
    {"2x2/allgather", 3, 0x1.19db7358bd307p-15, 3, 1200, 0x1.19db7358bd307p-15, 0xac1318a9ff4e0259ull},
    {"2x2/allgather-null", 0, 0x1.1757349a3b8p-15, 3, 1200, 0x1.1757349a3b8p-15, 0xcbf29ce484222325ull},
    {"2x2/allgather-null", 1, 0x1.19db7358bd307p-15, 3, 1200, 0x1.19db7358bd307p-15, 0xcbf29ce484222325ull},
    {"2x2/allgather-null", 2, 0x1.1757349a3b8p-15, 3, 1200, 0x1.1757349a3b8p-15, 0xcbf29ce484222325ull},
    {"2x2/allgather-null", 3, 0x1.19db7358bd307p-15, 3, 1200, 0x1.19db7358bd307p-15, 0xcbf29ce484222325ull},
    {"2x2/scatter", 0, 0x1.ae8777ecd2365p-18, 1, 400, 0x1.ae8777ecd2365p-18, 0x26f817364eee0ab6ull},
    {"2x2/scatter", 1, 0x1.457a5d942fcd4p-16, 0, 0, 0x1.457a5d942fcd4p-16, 0xdfbc2916e424d013ull},
    {"2x2/scatter", 2, 0x1.b1f61efaf3544p-17, 1, 400, 0x1.b1f61efaf3544p-17, 0x7e89783637e85a9aull},
    {"2x2/scatter", 3, 0x1.4608591218323p-16, 1, 400, 0x1.4608591218323p-16, 0xd11056e7f80322f6ull},
    {"2x2/gather", 0, 0x1.ad7f29abcaf48p-18, 0, 0, 0x1.ad7f29abcaf48p-18, 0xcbf29ce484222325ull},
    {"2x2/gather", 1, 0x1.09568f4849136p-16, 3, 1200, 0x1.09568f4849136p-16, 0xac1318a9ff4e0259ull},
    {"2x2/gather", 2, 0x1.b43526527a205p-18, 0, 0, 0x1.b43526527a205p-18, 0xcbf29ce484222325ull},
    {"2x2/gather", 3, 0x1.b43526527a205p-18, 0, 0, 0x1.b43526527a205p-18, 0xcbf29ce484222325ull},
    {"2x2/alltoall", 0, 0x1.1904b3c3e74afp-15, 3, 600, 0x1.1904b3c3e74afp-15, 0x41b9ba9447d9f0a0ull},
    {"2x2/alltoall", 1, 0x1.1904b3c3e74afp-15, 3, 600, 0x1.1904b3c3e74afp-15, 0xa5592b3aa1760bd4ull},
    {"2x2/alltoall", 2, 0x1.1904b3c3e74afp-15, 3, 600, 0x1.1904b3c3e74afp-15, 0xf639b501ac0a8fd2ull},
    {"2x2/alltoall", 3, 0x1.1904b3c3e74afp-15, 3, 600, 0x1.1904b3c3e74afp-15, 0x3a33af795317c6c4ull},
    {"2x2/reduce", 0, 0x1.b43526527a205p-18, 0, 0, 0x1.b43526527a205p-18, 0x91955800c94478c7ull},
    {"2x2/reduce", 1, 0x1.cbbc0aececeedp-17, 2, 8000, 0x1.cbbc0aececeedp-17, 0x5dbdf1982a99462bull},
    {"2x2/reduce", 2, 0x1.b43526527a205p-18, 0, 0, 0x1.b43526527a205p-18, 0x4394715e0b107cf7ull},
    {"2x2/reduce", 3, 0x1.bff8989fb3879p-17, 1, 4000, 0x1.bff8989fb3879p-17, 0x2ed9df2736db330dull},
    {"2x2/reduce_scatter", 0, 0x1.748128abe81d2p-15, 4, 1600, 0x1.748128abe81d2p-15, 0xa2858692c2efbaf7ull},
    {"2x2/reduce_scatter", 1, 0x1.77dc26ff3fb3p-15, 4, 1600, 0x1.77dc26ff3fb3p-15, 0x9c8b1901906aecf4ull},
    {"2x2/reduce_scatter", 2, 0x1.748128abe81d2p-15, 4, 1600, 0x1.748128abe81d2p-15, 0xfabc2dfd7067933eull},
    {"2x2/reduce_scatter", 3, 0x1.77dc26ff3fb3p-15, 4, 1600, 0x1.77dc26ff3fb3p-15, 0xdc064db1b889efbdull},
    {"2x2/allreduce-ring", 0, 0x1.17674fc565247p-14, 6, 6000, 0x1.17674fc565247p-14, 0xf9d53da5c912929cull},
    {"2x2/allreduce-ring", 1, 0x1.19eb8e83e6d4ep-14, 6, 6000, 0x1.19eb8e83e6d4ep-14, 0xf9d53da5c912929cull},
    {"2x2/allreduce-ring", 2, 0x1.17674fc565247p-14, 6, 6000, 0x1.17674fc565247p-14, 0xf9d53da5c912929cull},
    {"2x2/allreduce-ring", 3, 0x1.19eb8e83e6d4ep-14, 6, 6000, 0x1.19eb8e83e6d4ep-14, 0xf9d53da5c912929cull},
    {"2x2/allreduce-ring-null", 0, 0x1.17674fc565247p-14, 6, 6000, 0x1.17674fc565247p-14, 0xcbf29ce484222325ull},
    {"2x2/allreduce-ring-null", 1, 0x1.19eb8e83e6d4ep-14, 6, 6000, 0x1.19eb8e83e6d4ep-14, 0xcbf29ce484222325ull},
    {"2x2/allreduce-ring-null", 2, 0x1.17674fc565247p-14, 6, 6000, 0x1.17674fc565247p-14, 0xcbf29ce484222325ull},
    {"2x2/allreduce-ring-null", 3, 0x1.19eb8e83e6d4ep-14, 6, 6000, 0x1.19eb8e83e6d4ep-14, 0xcbf29ce484222325ull},
    {"2x2/allreduce-recursive_doubling", 0, 0x1.76cd91c3b74f6p-16, 2, 8000, 0x1.76cd91c3b74f6p-16, 0x5f4042ea0f0501edull},
    {"2x2/allreduce-recursive_doubling", 1, 0x1.76cd91c3b74f6p-16, 2, 8000, 0x1.76cd91c3b74f6p-16, 0x5f4042ea0f0501edull},
    {"2x2/allreduce-recursive_doubling", 2, 0x1.76cd91c3b74f6p-16, 2, 8000, 0x1.76cd91c3b74f6p-16, 0x5f4042ea0f0501edull},
    {"2x2/allreduce-recursive_doubling", 3, 0x1.76cd91c3b74f6p-16, 2, 8000, 0x1.76cd91c3b74f6p-16, 0x5f4042ea0f0501edull},
    {"2x2/allreduce-recursive_doubling-null", 0, 0x1.76cd91c3b74f6p-16, 2, 8000, 0x1.76cd91c3b74f6p-16, 0xcbf29ce484222325ull},
    {"2x2/allreduce-recursive_doubling-null", 1, 0x1.76cd91c3b74f6p-16, 2, 8000, 0x1.76cd91c3b74f6p-16, 0xcbf29ce484222325ull},
    {"2x2/allreduce-recursive_doubling-null", 2, 0x1.76cd91c3b74f6p-16, 2, 8000, 0x1.76cd91c3b74f6p-16, 0xcbf29ce484222325ull},
    {"2x2/allreduce-recursive_doubling-null", 3, 0x1.76cd91c3b74f6p-16, 2, 8000, 0x1.76cd91c3b74f6p-16, 0xcbf29ce484222325ull},
    {"2x2/allreduce-rabenseifner", 0, 0x1.7641fba2f913dp-15, 4, 6000, 0x1.7641fba2f913dp-15, 0xd5e9d3b18967352bull},
    {"2x2/allreduce-rabenseifner", 1, 0x1.7641fba2f913dp-15, 4, 6000, 0x1.7641fba2f913dp-15, 0xd5e9d3b18967352bull},
    {"2x2/allreduce-rabenseifner", 2, 0x1.7641fba2f913dp-15, 4, 6000, 0x1.7641fba2f913dp-15, 0xd5e9d3b18967352bull},
    {"2x2/allreduce-rabenseifner", 3, 0x1.7641fba2f913dp-15, 4, 6000, 0x1.7641fba2f913dp-15, 0xd5e9d3b18967352bull},
    {"2x2/allreduce-rabenseifner-null", 0, 0x1.7641fba2f913dp-15, 4, 6000, 0x1.7641fba2f913dp-15, 0xcbf29ce484222325ull},
    {"2x2/allreduce-rabenseifner-null", 1, 0x1.7641fba2f913dp-15, 4, 6000, 0x1.7641fba2f913dp-15, 0xcbf29ce484222325ull},
    {"2x2/allreduce-rabenseifner-null", 2, 0x1.7641fba2f913dp-15, 4, 6000, 0x1.7641fba2f913dp-15, 0xcbf29ce484222325ull},
    {"2x2/allreduce-rabenseifner-null", 3, 0x1.7641fba2f913dp-15, 4, 6000, 0x1.7641fba2f913dp-15, 0xcbf29ce484222325ull},
    {"2x2/allreduce-ring-5", 0, 0x1.175745185b692p-14, 6, 28, 0x1.175745185b692p-14, 0x2bc796958f752cbeull},
    {"2x2/allreduce-ring-5", 1, 0x1.19db89563d11fp-14, 6, 32, 0x1.19db89563d11fp-14, 0x2bc796958f752cbeull},
    {"2x2/allreduce-ring-5", 2, 0x1.17574a97bb618p-14, 6, 32, 0x1.17574a97bb618p-14, 0x2bc796958f752cbeull},
    {"2x2/allreduce-ring-5", 3, 0x1.19db89563d11fp-14, 6, 28, 0x1.19db89563d11fp-14, 0x2bc796958f752cbeull},
    {"2x2/hierarchical-1000", 0, 0x1.86ded397b83fbp-15, 8, 8024, 0x1.86ded397b83fbp-15, 0x5f4042ea0f0501edull},
    {"2x2/hierarchical-1000", 1, 0x1.882935690151fp-15, 3, 4032, 0x1.882935690151ep-15, 0x5f4042ea0f0501edull},
    {"2x2/hierarchical-1000", 2, 0x1.86e1aa8ae0bcap-15, 4, 8032, 0x1.86e1aa8ae0bcap-15, 0x5f4042ea0f0501edull},
    {"2x2/hierarchical-1000", 3, 0x1.882c0c5c29ceep-15, 3, 4032, 0x1.882c0c5c29ceep-15, 0x5f4042ea0f0501edull},
    {"2x2/hierarchical-1000-null", 0, 0x1.86ded397b83fbp-15, 8, 8024, 0x1.86ded397b83fbp-15, 0xcbf29ce484222325ull},
    {"2x2/hierarchical-1000-null", 1, 0x1.882935690151fp-15, 3, 4032, 0x1.882935690151ep-15, 0xcbf29ce484222325ull},
    {"2x2/hierarchical-1000-null", 2, 0x1.86e1aa8ae0bcap-15, 4, 8032, 0x1.86e1aa8ae0bcap-15, 0xcbf29ce484222325ull},
    {"2x2/hierarchical-1000-null", 3, 0x1.882c0c5c29ceep-15, 3, 4032, 0x1.882c0c5c29ceep-15, 0xcbf29ce484222325ull},
    {"2x2/hierarchical-70000", 0, 0x1.c120256c4b394p-14, 11, 700024, 0x1.c120256c4b394p-14, 0x9d8e96ae2f144b28ull},
    {"2x2/hierarchical-70000", 1, 0x1.be410bc76f0a4p-14, 5, 420032, 0x1.be410bc76f0a4p-14, 0x9d8e96ae2f144b28ull},
    {"2x2/hierarchical-70000", 2, 0x1.c12190e5df77cp-14, 7, 700032, 0x1.c12190e5df77cp-14, 0x9d8e96ae2f144b28ull},
    {"2x2/hierarchical-70000", 3, 0x1.be4277410348cp-14, 5, 420032, 0x1.be4277410348cp-14, 0x9d8e96ae2f144b28ull},
    {"2x2/hierarchical-70000-null", 0, 0x1.c120256c4b394p-14, 11, 700024, 0x1.c120256c4b394p-14, 0xcbf29ce484222325ull},
    {"2x2/hierarchical-70000-null", 1, 0x1.be410bc76f0a4p-14, 5, 420032, 0x1.be410bc76f0a4p-14, 0xcbf29ce484222325ull},
    {"2x2/hierarchical-70000-null", 2, 0x1.c12190e5df77cp-14, 7, 700032, 0x1.c12190e5df77cp-14, 0xcbf29ce484222325ull},
    {"2x2/hierarchical-70000-null", 3, 0x1.be4277410348cp-14, 5, 420032, 0x1.be4277410348cp-14, 0xcbf29ce484222325ull},
    {"2x3/barrier", 0, 0x1.7e85411d00c1dp-17, 3, 0, 0x1.7e85411d00c1dp-17, 0xcbf29ce484222325ull},
    {"2x3/barrier", 1, 0x1.92a737110e454p-17, 3, 0, 0x1.92a737110e454p-17, 0xcbf29ce484222325ull},
    {"2x3/barrier", 2, 0x1.92a737110e455p-17, 3, 0, 0x1.92a737110e455p-17, 0xcbf29ce484222325ull},
    {"2x3/barrier", 3, 0x1.7e85411d00c1dp-17, 3, 0, 0x1.7e85411d00c1dp-17, 0xcbf29ce484222325ull},
    {"2x3/barrier", 4, 0x1.92a737110e454p-17, 3, 0, 0x1.92a737110e454p-17, 0xcbf29ce484222325ull},
    {"2x3/barrier", 5, 0x1.92a737110e455p-17, 3, 0, 0x1.92a737110e455p-17, 0xcbf29ce484222325ull},
    {"2x3/bcast", 0, 0x1.ca6471fec9e61p-17, 1, 4000, 0x1.ca6471fec9e61p-17, 0x66e482af8411892bull},
    {"2x3/bcast", 1, 0x1.3d16e1c3d4d68p-16, 0, 0, 0x1.3d16e1c3d4d68p-16, 0x66e482af8411892bull},
    {"2x3/bcast", 2, 0x1.3e8c5b78c3443p-16, 1, 4000, 0x1.3e8c5b78c3443p-16, 0x66e482af8411892bull},
    {"2x3/bcast", 3, 0x1.42a2b4aee8c7fp-16, 1, 4000, 0x1.42a2b4aee8c7fp-16, 0x66e482af8411892bull},
    {"2x3/bcast", 4, 0x1.44182e63d735ap-16, 1, 4000, 0x1.44182e63d735ap-16, 0x66e482af8411892bull},
    {"2x3/bcast", 5, 0x1.bf4ccc28a2033p-17, 1, 4000, 0x1.bf4ccc28a2033p-17, 0x66e482af8411892bull},
    {"2x3/bcast-null", 0, 0x1.ca6471fec9e61p-17, 1, 4000, 0x1.ca6471fec9e61p-17, 0xcbf29ce484222325ull},
    {"2x3/bcast-null", 1, 0x1.3d16e1c3d4d68p-16, 0, 0, 0x1.3d16e1c3d4d68p-16, 0xcbf29ce484222325ull},
    {"2x3/bcast-null", 2, 0x1.3e8c5b78c3443p-16, 1, 4000, 0x1.3e8c5b78c3443p-16, 0xcbf29ce484222325ull},
    {"2x3/bcast-null", 3, 0x1.42a2b4aee8c7fp-16, 1, 4000, 0x1.42a2b4aee8c7fp-16, 0xcbf29ce484222325ull},
    {"2x3/bcast-null", 4, 0x1.44182e63d735ap-16, 1, 4000, 0x1.44182e63d735ap-16, 0xcbf29ce484222325ull},
    {"2x3/bcast-null", 5, 0x1.bf4ccc28a2033p-17, 1, 4000, 0x1.bf4ccc28a2033p-17, 0xcbf29ce484222325ull},
    {"2x3/bcast_blob", 0, 0x1.944b7ba4767a4p-18, 1, 148, 0x1.944b7ba4767a4p-18, 0x96e4b37cac6e65a5ull},
    {"2x3/bcast_blob", 1, 0x1.19db7358bd308p-17, 0, 0, 0x1.19db7358bd308p-17, 0x96e4b37cac6e65a5ull},
    {"2x3/bcast_blob", 2, 0x1.19f7167706211p-17, 1, 148, 0x1.19f7167706211p-17, 0x96e4b37cac6e65a5ull},
    {"2x3/bcast_blob", 3, 0x1.1a44847d973dcp-17, 1, 148, 0x1.1a44847d973dcp-17, 0x96e4b37cac6e65a5ull},
    {"2x3/bcast_blob", 4, 0x1.1a60279be02e5p-17, 1, 148, 0x1.1a60279be02e5p-17, 0x96e4b37cac6e65a5ull},
    {"2x3/bcast_blob", 5, 0x1.9379595ac25fcp-18, 1, 148, 0x1.9379595ac25fcp-18, 0x96e4b37cac6e65a5ull},
    {"2x3/gather_blobs", 0, 0x1.421f5f40d8376p-19, 0, 0, 0x1.421f5f40d8376p-19, 0xcbf29ce484222325ull},
    {"2x3/gather_blobs", 1, 0x1.e32f0ee144532p-18, 5, 280, 0x1.e32f0ee144532p-18, 0x59b0c2354d123c29ull},
    {"2x3/gather_blobs", 2, 0x1.421f5f40d8376p-19, 0, 0, 0x1.421f5f40d8376p-19, 0xcbf29ce484222325ull},
    {"2x3/gather_blobs", 3, 0x1.92a737110e454p-19, 0, 0, 0x1.92a737110e454p-19, 0xcbf29ce484222325ull},
    {"2x3/gather_blobs", 4, 0x1.92a737110e454p-19, 0, 0, 0x1.92a737110e454p-19, 0xcbf29ce484222325ull},
    {"2x3/gather_blobs", 5, 0x1.92a737110e454p-19, 0, 0, 0x1.92a737110e454p-19, 0xcbf29ce484222325ull},
    {"2x3/allgather", 0, 0x1.bc98a222d5172p-15, 5, 2000, 0x1.bc98a222d5172p-15, 0x7648cbcac439ecf0ull},
    {"2x3/allgather", 1, 0x1.bc98a222d5172p-15, 5, 2000, 0x1.bc98a222d5172p-15, 0x7648cbcac439ecf0ull},
    {"2x3/allgather", 2, 0x1.d5c31593e5fb7p-15, 5, 2000, 0x1.d5c31593e5fb7p-15, 0x7648cbcac439ecf0ull},
    {"2x3/allgather", 3, 0x1.bc98a222d5172p-15, 5, 2000, 0x1.bc98a222d5172p-15, 0x7648cbcac439ecf0ull},
    {"2x3/allgather", 4, 0x1.bc98a222d5172p-15, 5, 2000, 0x1.bc98a222d5172p-15, 0x7648cbcac439ecf0ull},
    {"2x3/allgather", 5, 0x1.d5c31593e5fb7p-15, 5, 2000, 0x1.d5c31593e5fb7p-15, 0x7648cbcac439ecf0ull},
    {"2x3/allgather-null", 0, 0x1.bc98a222d5172p-15, 5, 2000, 0x1.bc98a222d5172p-15, 0xcbf29ce484222325ull},
    {"2x3/allgather-null", 1, 0x1.bc98a222d5172p-15, 5, 2000, 0x1.bc98a222d5172p-15, 0xcbf29ce484222325ull},
    {"2x3/allgather-null", 2, 0x1.d5c31593e5fb7p-15, 5, 2000, 0x1.d5c31593e5fb7p-15, 0xcbf29ce484222325ull},
    {"2x3/allgather-null", 3, 0x1.bc98a222d5172p-15, 5, 2000, 0x1.bc98a222d5172p-15, 0xcbf29ce484222325ull},
    {"2x3/allgather-null", 4, 0x1.bc98a222d5172p-15, 5, 2000, 0x1.bc98a222d5172p-15, 0xcbf29ce484222325ull},
    {"2x3/allgather-null", 5, 0x1.d5c31593e5fb7p-15, 5, 2000, 0x1.d5c31593e5fb7p-15, 0xcbf29ce484222325ull},
    {"2x3/scatter", 0, 0x1.8c869e4c58121p-18, 1, 400, 0x1.8c869e4c58121p-18, 0x26f817364eee0ab6ull},
    {"2x3/scatter", 1, 0x1.06903cf985927p-15, 0, 0, 0x1.06903cf985927p-15, 0xdfbc2916e424d013ull},
    {"2x3/scatter", 2, 0x1.8c3bec5b5b95bp-17, 1, 400, 0x1.8c3bec5b5b95bp-17, 0x7e89783637e85a9aull},
    {"2x3/scatter", 3, 0x1.3393e247b679bp-16, 1, 400, 0x1.3393e247b679bp-16, 0xd11056e7f80322f6ull},
    {"2x3/scatter", 4, 0x1.a0a12bdc5501cp-16, 1, 400, 0x1.a0a12bdc5501cp-16, 0xf1a15e722d88f817ull},
    {"2x3/scatter", 5, 0x1.06d73ab879c4fp-15, 1, 400, 0x1.06d73ab879c4fp-15, 0xc224a1fc453e2087ull},
    {"2x3/gather", 0, 0x1.8bf13a6a5f196p-18, 0, 0, 0x1.8bf13a6a5f196p-18, 0xcbf29ce484222325ull},
    {"2x3/gather", 1, 0x1.9e8b0a2d3f101p-16, 5, 2000, 0x1.9e8b0a2d3f101p-16, 0x7648cbcac439ecf0ull},
    {"2x3/gather", 2, 0x1.8bf13a6a5f196p-18, 0, 0, 0x1.8bf13a6a5f196p-18, 0xcbf29ce484222325ull},
    {"2x3/gather", 3, 0x1.b43526527a205p-18, 0, 0, 0x1.b43526527a205p-18, 0xcbf29ce484222325ull},
    {"2x3/gather", 4, 0x1.b43526527a205p-18, 0, 0, 0x1.b43526527a205p-18, 0xcbf29ce484222325ull},
    {"2x3/gather", 5, 0x1.b43526527a205p-18, 0, 0, 0x1.b43526527a205p-18, 0xcbf29ce484222325ull},
    {"2x3/alltoall", 0, 0x1.cbb21a99df39bp-15, 5, 1000, 0x1.cbb21a99df39bp-15, 0x07ebddc9cd8b3a0dull},
    {"2x3/alltoall", 1, 0x1.cbb21a99df39bp-15, 5, 1000, 0x1.cbb21a99df39bp-15, 0x9ce8a821f687e1ecull},
    {"2x3/alltoall", 2, 0x1.cbb21a99df39bp-15, 5, 1000, 0x1.cbb21a99df39bp-15, 0x73c5d06555413b55ull},
    {"2x3/alltoall", 3, 0x1.cbb21a99df39bp-15, 5, 1000, 0x1.cbb21a99df39bp-15, 0x0725b575559031b5ull},
    {"2x3/alltoall", 4, 0x1.cbb21a99df39bp-15, 5, 1000, 0x1.cbb21a99df39bp-15, 0x1052e014ce6f856aull},
    {"2x3/alltoall", 5, 0x1.cbb21a99df39bp-15, 5, 1000, 0x1.cbb21a99df39bp-15, 0xc33e51c0b7ea8fb6ull},
    {"2x3/reduce", 0, 0x1.b43526527a205p-18, 0, 0, 0x1.b43526527a205p-18, 0x91955800c94478c7ull},
    {"2x3/reduce", 1, 0x1.26e6f0285d37p-16, 3, 12000, 0x1.26e6f0285d37p-16, 0xc05f312665fa6e2eull},
    {"2x3/reduce", 2, 0x1.8bf13a6a5f196p-18, 0, 0, 0x1.8bf13a6a5f196p-18, 0x4394715e0b107cf7ull},
    {"2x3/reduce", 3, 0x1.a3a9f03f5afcap-17, 1, 4000, 0x1.a3a9f03f5afcap-17, 0xa9f315628630a2c6ull},
    {"2x3/reduce", 4, 0x1.8bf13a6a5f196p-18, 0, 0, 0x1.8bf13a6a5f196p-18, 0xac10fcf8a3b9c4cdull},
    {"2x3/reduce", 5, 0x1.bff8989fb3879p-17, 1, 4000, 0x1.bff8989fb3879p-17, 0x1f5714c16056f062ull},
    {"2x3/reduce_scatter", 0, 0x1.0accb7a924262p-14, 6, 2400, 0x1.0accb7a924262p-14, 0xd6fbcbca2539efcbull},
    {"2x3/reduce_scatter", 1, 0x1.0accb7a924262p-14, 6, 2400, 0x1.0accb7a924262p-14, 0xd4e81ed34c1f45b5ull},
    {"2x3/reduce_scatter", 2, 0x1.19e630202e48bp-14, 6, 2400, 0x1.19e630202e48bp-14, 0xc03a497d568e62c1ull},
    {"2x3/reduce_scatter", 3, 0x1.0accb7a924262p-14, 6, 2400, 0x1.0accb7a924262p-14, 0x3251fcd8818b3cf6ull},
    {"2x3/reduce_scatter", 4, 0x1.0accb7a924262p-14, 6, 2400, 0x1.0accb7a924262p-14, 0x1c5b94d5a3357ff7ull},
    {"2x3/reduce_scatter", 5, 0x1.19e630202e48bp-14, 6, 2400, 0x1.19e630202e48bp-14, 0x6c5d11d11e164feaull},
    {"2x3/allreduce-ring", 0, 0x1.c259af74d7bd6p-14, 10, 6664, 0x1.c259af74d7bd6p-14, 0x3387e73b30ffb77eull},
    {"2x3/allreduce-ring", 1, 0x1.bcaa859a1c422p-14, 10, 6664, 0x1.bcaa859a1c422p-14, 0x3387e73b30ffb77eull},
    {"2x3/allreduce-ring", 2, 0x1.d5d4f90b2d268p-14, 10, 6664, 0x1.d5d4f90b2d268p-14, 0x3387e73b30ffb77eull},
    {"2x3/allreduce-ring", 3, 0x1.c2594f1712b56p-14, 10, 6668, 0x1.c2594f1712b56p-14, 0x3387e73b30ffb77eull},
    {"2x3/allreduce-ring", 4, 0x1.bcaa8b197c3a8p-14, 10, 6672, 0x1.bcaa8b197c3a8p-14, 0x3387e73b30ffb77eull},
    {"2x3/allreduce-ring", 5, 0x1.d5d4fe8a8d1eep-14, 10, 6668, 0x1.d5d4fe8a8d1eep-14, 0x3387e73b30ffb77eull},
    {"2x3/allreduce-ring-null", 0, 0x1.c259af74d7bd6p-14, 10, 6664, 0x1.c259af74d7bd6p-14, 0xcbf29ce484222325ull},
    {"2x3/allreduce-ring-null", 1, 0x1.bcaa859a1c422p-14, 10, 6664, 0x1.bcaa859a1c422p-14, 0xcbf29ce484222325ull},
    {"2x3/allreduce-ring-null", 2, 0x1.d5d4f90b2d268p-14, 10, 6664, 0x1.d5d4f90b2d268p-14, 0xcbf29ce484222325ull},
    {"2x3/allreduce-ring-null", 3, 0x1.c2594f1712b56p-14, 10, 6668, 0x1.c2594f1712b56p-14, 0xcbf29ce484222325ull},
    {"2x3/allreduce-ring-null", 4, 0x1.bcaa8b197c3a8p-14, 10, 6672, 0x1.bcaa8b197c3a8p-14, 0xcbf29ce484222325ull},
    {"2x3/allreduce-ring-null", 5, 0x1.d5d4fe8a8d1eep-14, 10, 6668, 0x1.d5d4fe8a8d1eep-14, 0xcbf29ce484222325ull},
    {"2x3/allreduce-recursive_doubling", 0, 0x1.20da43e3fc225p-15, 1, 4000, 0x1.20da43e3fc225p-15, 0xf0444deca54fb86dull},
    {"2x3/allreduce-recursive_doubling", 1, 0x1.201f870984eb7p-15, 3, 12000, 0x1.201f870984eb7p-15, 0xf0444deca54fb86dull},
    {"2x3/allreduce-recursive_doubling", 2, 0x1.29f91a972506fp-15, 1, 4000, 0x1.29f91a972506fp-15, 0xf0444deca54fb86dull},
    {"2x3/allreduce-recursive_doubling", 3, 0x1.273331219b0e3p-15, 3, 12000, 0x1.273331219b0e3p-15, 0xf0444deca54fb86dull},
    {"2x3/allreduce-recursive_doubling", 4, 0x1.93f439bcfbbf1p-16, 2, 8000, 0x1.93f439bcfbbf1p-16, 0xf0444deca54fb86dull},
    {"2x3/allreduce-recursive_doubling", 5, 0x1.93f439bcfbbf2p-16, 2, 8000, 0x1.93f439bcfbbf2p-16, 0xf0444deca54fb86dull},
    {"2x3/allreduce-recursive_doubling-null", 0, 0x1.20da43e3fc225p-15, 1, 4000, 0x1.20da43e3fc225p-15, 0xcbf29ce484222325ull},
    {"2x3/allreduce-recursive_doubling-null", 1, 0x1.201f870984eb7p-15, 3, 12000, 0x1.201f870984eb7p-15, 0xcbf29ce484222325ull},
    {"2x3/allreduce-recursive_doubling-null", 2, 0x1.29f91a972506fp-15, 1, 4000, 0x1.29f91a972506fp-15, 0xcbf29ce484222325ull},
    {"2x3/allreduce-recursive_doubling-null", 3, 0x1.273331219b0e3p-15, 3, 12000, 0x1.273331219b0e3p-15, 0xcbf29ce484222325ull},
    {"2x3/allreduce-recursive_doubling-null", 4, 0x1.93f439bcfbbf1p-16, 2, 8000, 0x1.93f439bcfbbf1p-16, 0xcbf29ce484222325ull},
    {"2x3/allreduce-recursive_doubling-null", 5, 0x1.93f439bcfbbf2p-16, 2, 8000, 0x1.93f439bcfbbf2p-16, 0xcbf29ce484222325ull},
    {"2x3/allreduce-rabenseifner", 0, 0x1.dc8c3639ef73fp-15, 1, 4000, 0x1.dc8c3639ef73fp-15, 0xb8b69ccffb97a383ull},
    {"2x3/allreduce-rabenseifner", 1, 0x1.dbd1795f783d1p-15, 5, 10000, 0x1.dbd1795f783d1p-15, 0xb8b69ccffb97a383ull},
    {"2x3/allreduce-rabenseifner", 2, 0x1.e0a28f7014f7bp-15, 1, 4000, 0x1.e0a28f7014f7bp-15, 0xb8b69ccffb97a383ull},
    {"2x3/allreduce-rabenseifner", 3, 0x1.dddca5fa8afefp-15, 5, 10000, 0x1.dddca5fa8afefp-15, 0xb8b69ccffb97a383ull},
    {"2x3/allreduce-rabenseifner", 4, 0x1.84491a79ac34dp-15, 4, 6000, 0x1.84491a79ac34dp-15, 0xb8b69ccffb97a383ull},
    {"2x3/allreduce-rabenseifner", 5, 0x1.8046334a3234ep-15, 4, 6000, 0x1.8046334a3234ep-15, 0xb8b69ccffb97a383ull},
    {"2x3/allreduce-rabenseifner-null", 0, 0x1.dc8c3639ef73fp-15, 1, 4000, 0x1.dc8c3639ef73fp-15, 0xcbf29ce484222325ull},
    {"2x3/allreduce-rabenseifner-null", 1, 0x1.dbd1795f783d1p-15, 5, 10000, 0x1.dbd1795f783d1p-15, 0xcbf29ce484222325ull},
    {"2x3/allreduce-rabenseifner-null", 2, 0x1.e0a28f7014f7bp-15, 1, 4000, 0x1.e0a28f7014f7bp-15, 0xcbf29ce484222325ull},
    {"2x3/allreduce-rabenseifner-null", 3, 0x1.dddca5fa8afefp-15, 5, 10000, 0x1.dddca5fa8afefp-15, 0xcbf29ce484222325ull},
    {"2x3/allreduce-rabenseifner-null", 4, 0x1.84491a79ac34dp-15, 4, 6000, 0x1.84491a79ac34dp-15, 0xcbf29ce484222325ull},
    {"2x3/allreduce-rabenseifner-null", 5, 0x1.8046334a3234ep-15, 4, 6000, 0x1.8046334a3234ep-15, 0xcbf29ce484222325ull},
    {"2x3/allreduce-ring-5", 0, 0x1.c20cf5c588543p-14, 10, 32, 0x1.c20cf5c588543p-14, 0x76a70acd66f6c6f1ull},
    {"2x3/allreduce-ring-5", 1, 0x1.bc98b82054f8ap-14, 10, 32, 0x1.bc98b82054f8ap-14, 0x76a70acd66f6c6f1ull},
    {"2x3/allreduce-ring-5", 2, 0x1.d5c32b9165dcfp-14, 10, 32, 0x1.d5c32b9165dcfp-14, 0x76a70acd66f6c6f1ull},
    {"2x3/allreduce-ring-5", 3, 0x1.c20c9567c34c3p-14, 10, 32, 0x1.c20c9567c34c3p-14, 0x76a70acd66f6c6f1ull},
    {"2x3/allreduce-ring-5", 4, 0x1.bc98b82054f8ap-14, 10, 36, 0x1.bc98b82054f8ap-14, 0x76a70acd66f6c6f1ull},
    {"2x3/allreduce-ring-5", 5, 0x1.d5c33110c5d55p-14, 10, 36, 0x1.d5c33110c5d55p-14, 0x76a70acd66f6c6f1ull},
    {"2x3/hierarchical-1000", 0, 0x1.0b61149de1543p-14, 13, 12040, 0x1.0b61149de1543p-14, 0x28d82a235e2e45d9ull},
    {"2x3/hierarchical-1000", 1, 0x1.0bbe730b1cefap-14, 3, 4048, 0x1.0bbe730b1cefap-14, 0x28d82a235e2e45d9ull},
    {"2x3/hierarchical-1000", 2, 0x1.e5febec8edfc2p-15, 3, 4048, 0x1.e5febec8edfc2p-15, 0x28d82a235e2e45d9ull},
    {"2x3/hierarchical-1000", 3, 0x1.088198a88266p-14, 5, 12048, 0x1.088198a88266p-14, 0x28d82a235e2e45d9ull},
    {"2x3/hierarchical-1000", 4, 0x1.08def715be017p-14, 3, 4048, 0x1.08def715be017p-14, 0x28d82a235e2e45d9ull},
    {"2x3/hierarchical-1000", 5, 0x1.e03fc6de301fcp-15, 3, 4048, 0x1.e03fc6de301fcp-15, 0x28d82a235e2e45d9ull},
    {"2x3/hierarchical-1000-null", 0, 0x1.0b61149de1543p-14, 13, 12040, 0x1.0b61149de1543p-14, 0xcbf29ce484222325ull},
    {"2x3/hierarchical-1000-null", 1, 0x1.0bbe730b1cefap-14, 3, 4048, 0x1.0bbe730b1cefap-14, 0xcbf29ce484222325ull},
    {"2x3/hierarchical-1000-null", 2, 0x1.e5febec8edfc2p-15, 3, 4048, 0x1.e5febec8edfc2p-15, 0xcbf29ce484222325ull},
    {"2x3/hierarchical-1000-null", 3, 0x1.088198a88266p-14, 5, 12048, 0x1.088198a88266p-14, 0xcbf29ce484222325ull},
    {"2x3/hierarchical-1000-null", 4, 0x1.08def715be017p-14, 3, 4048, 0x1.08def715be017p-14, 0xcbf29ce484222325ull},
    {"2x3/hierarchical-1000-null", 5, 0x1.e03fc6de301fcp-15, 3, 4048, 0x1.e03fc6de301fcp-15, 0xcbf29ce484222325ull},
    {"2x3/hierarchical-70000", 0, 0x1.1a48fa3cc6e12p-13, 18, 840036, 0x1.1a48fa3cc6e12p-13, 0xe3a369c24d323062ull},
    {"2x3/hierarchical-70000", 1, 0x1.14af04c4aed34p-13, 7, 466716, 0x1.14af04c4aed34p-13, 0xe3a369c24d323062ull},
    {"2x3/hierarchical-70000", 2, 0x1.1e8a43e5fd63ep-13, 7, 466716, 0x1.1e8a43e5fd63ep-13, 0xe3a369c24d323062ull},
    {"2x3/hierarchical-70000", 3, 0x1.15f234bf1eda5p-13, 10, 840044, 0x1.15f234bf1eda5p-13, 0xe3a369c24d323062ull},
    {"2x3/hierarchical-70000", 4, 0x1.10583f4706cc7p-13, 7, 466716, 0x1.10583f4706cc7p-13, 0xe3a369c24d323062ull},
    {"2x3/hierarchical-70000", 5, 0x1.1a337e68555d1p-13, 7, 466716, 0x1.1a337e68555d1p-13, 0xe3a369c24d323062ull},
    {"2x3/hierarchical-70000-null", 0, 0x1.1a48fa3cc6e12p-13, 18, 840036, 0x1.1a48fa3cc6e12p-13, 0xcbf29ce484222325ull},
    {"2x3/hierarchical-70000-null", 1, 0x1.14af04c4aed34p-13, 7, 466716, 0x1.14af04c4aed34p-13, 0xcbf29ce484222325ull},
    {"2x3/hierarchical-70000-null", 2, 0x1.1e8a43e5fd63ep-13, 7, 466716, 0x1.1e8a43e5fd63ep-13, 0xcbf29ce484222325ull},
    {"2x3/hierarchical-70000-null", 3, 0x1.15f234bf1eda5p-13, 10, 840044, 0x1.15f234bf1eda5p-13, 0xcbf29ce484222325ull},
    {"2x3/hierarchical-70000-null", 4, 0x1.10583f4706cc7p-13, 7, 466716, 0x1.10583f4706cc7p-13, 0xcbf29ce484222325ull},
    {"2x3/hierarchical-70000-null", 5, 0x1.1a337e68555d1p-13, 7, 466716, 0x1.1a337e68555d1p-13, 0xcbf29ce484222325ull},
};
// clang-format on

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

std::uint64_t fnv1a(std::span<const std::byte> bytes, std::uint64_t h = kFnvBasis) {
  for (const std::byte b : bytes) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 0x100000001b3ull;
  }
  return h;
}

template <typename T>
std::uint64_t digest_of(const std::vector<T>& v, std::uint64_t h = kFnvBasis) {
  return fnv1a(std::as_bytes(std::span<const T>(v)), h);
}

/// Rank-dependent floats whose sums depend on reduction order.
std::vector<float> pattern(std::size_t n, int rank) {
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = 1.0f / static_cast<float>(1 + rank + static_cast<int>(i % 7)) +
           0.001f * static_cast<float>(i);
  }
  return v;
}

/// A collective run on every rank; returns the digest of what it produced.
using PinnedBody = std::function<std::uint64_t(dm::Communicator&)>;

std::vector<Pin> observe(const std::string& name, const dn::Topology& topology,
                         const PinnedBody& body) {
  dm::WorldOptions options;
  options.topology = topology;
  options.profile = dn::MpiProfile::mvapich2_gdr_like();
  options.profile.eager_threshold_device = ~std::size_t{0};
  options.profile.eager_threshold_host = ~std::size_t{0};
  options.profile.rails = 8;
  options.profile.rail_stripe_min = ~std::size_t{0};
  options.timing = true;
  std::vector<Pin> rows(static_cast<std::size_t>(topology.world_size()));
  dm::run_world(options, [&](dm::Communicator& comm) {
    const std::uint64_t digest = body(comm);
    const dm::CommStats stats = comm.stats();
    rows[static_cast<std::size_t>(comm.rank())] = {
        nullptr, comm.rank(), comm.now(), stats.messages, stats.bytes, stats.comm_time_s, digest};
  });
  for (Pin& row : rows) row.name = name.c_str();
  return rows;
}

std::string literal(const std::string& name, const Pin& row) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "{\"%s\", %d, %a, %llu, %llu, %a, 0x%016llxull},", name.c_str(),
                row.rank, row.now, static_cast<unsigned long long>(row.messages),
                static_cast<unsigned long long>(row.bytes), row.comm_time_s,
                static_cast<unsigned long long>(row.digest));
  return buf;
}

std::vector<std::pair<std::string, PinnedBody>> pinned_collectives() {
  using dm::AllreduceAlgo;
  constexpr dm::MemSpace kDev = dm::MemSpace::kDevice;
  constexpr int kRoot = 1;
  std::vector<std::pair<std::string, PinnedBody>> cases;
  cases.emplace_back("barrier", [](dm::Communicator& comm) {
    comm.barrier();
    return kFnvBasis;
  });
  cases.emplace_back("bcast", [](dm::Communicator& comm) {
    auto data = pattern(1000, comm.rank());
    comm.bcast(std::as_writable_bytes(std::span<float>(data)), kRoot, kDev);
    return digest_of(data);
  });
  cases.emplace_back("bcast-null", [](dm::Communicator& comm) {
    comm.bcast({}, kRoot, kDev, 4000);
    return kFnvBasis;
  });
  cases.emplace_back("bcast_blob", [](dm::Communicator& comm) {
    const auto mine = pattern(comm.rank() == kRoot ? 37 : 3, comm.rank());
    return digest_of(comm.bcast_blob(std::as_bytes(std::span<const float>(mine)), kRoot));
  });
  cases.emplace_back("gather_blobs", [](dm::Communicator& comm) {
    // Rank 0 contributes an empty blob.
    const auto mine = pattern(static_cast<std::size_t>(5 * comm.rank()), comm.rank());
    std::uint64_t h = kFnvBasis;
    for (const auto& blob : comm.gather_blobs(std::as_bytes(std::span<const float>(mine)), kRoot)) {
      const std::uint64_t len = blob.size();
      h = fnv1a(std::as_bytes(std::span<const std::uint64_t, 1>(&len, 1)), h);
      h = digest_of(blob, h);
    }
    return h;
  });
  cases.emplace_back("allgather", [](dm::Communicator& comm) {
    const auto mine = pattern(100, comm.rank());
    std::vector<float> out(100 * static_cast<std::size_t>(comm.size()));
    comm.allgather(std::as_bytes(std::span<const float>(mine)),
                   std::as_writable_bytes(std::span<float>(out)), kDev);
    return digest_of(out);
  });
  cases.emplace_back("allgather-null", [](dm::Communicator& comm) {
    comm.allgather({}, {}, kDev, 400);
    return kFnvBasis;
  });
  cases.emplace_back("scatter", [](dm::Communicator& comm) {
    const auto blocks =
        comm.rank() == kRoot ? pattern(100 * static_cast<std::size_t>(comm.size()), kRoot)
                             : std::vector<float>{};
    std::vector<float> mine(100);
    comm.scatter(std::as_bytes(std::span<const float>(blocks)),
                 std::as_writable_bytes(std::span<float>(mine)), kRoot, kDev);
    return digest_of(mine);
  });
  cases.emplace_back("gather", [](dm::Communicator& comm) {
    const auto mine = pattern(100, comm.rank());
    std::vector<float> blocks(comm.rank() == kRoot ? 100 * static_cast<std::size_t>(comm.size())
                                                   : 0);
    comm.gather(std::as_bytes(std::span<const float>(mine)),
                std::as_writable_bytes(std::span<float>(blocks)), kRoot, kDev);
    return digest_of(blocks);
  });
  cases.emplace_back("alltoall", [](dm::Communicator& comm) {
    const auto send = pattern(50 * static_cast<std::size_t>(comm.size()), comm.rank());
    std::vector<float> recv(send.size());
    comm.alltoall(std::as_bytes(std::span<const float>(send)),
                  std::as_writable_bytes(std::span<float>(recv)), kDev);
    return digest_of(recv);
  });
  cases.emplace_back("reduce", [](dm::Communicator& comm) {
    auto data = pattern(1000, comm.rank());
    comm.reduce(std::span<float>(data), dm::ReduceOp::kSum, kRoot, kDev);
    return digest_of(data);
  });
  cases.emplace_back("reduce_scatter", [](dm::Communicator& comm) {
    auto data = pattern(100 * static_cast<std::size_t>(comm.size()), comm.rank());
    std::vector<float> out(100);
    comm.reduce_scatter(std::span<float>(data), std::span<float>(out), dm::ReduceOp::kSum, kDev);
    return digest_of(out, digest_of(data));
  });
  const std::pair<const char*, AllreduceAlgo> algos[] = {
      {"ring", AllreduceAlgo::kRing},
      {"recursive_doubling", AllreduceAlgo::kRecursiveDoubling},
      {"rabenseifner", AllreduceAlgo::kRabenseifner}};
  for (const auto& [algo_name, algo] : algos) {
    cases.emplace_back(std::string("allreduce-") + algo_name, [algo](dm::Communicator& comm) {
      auto data = pattern(1000, comm.rank());
      comm.allreduce(std::span<float>(data), dm::ReduceOp::kSum, kDev, algo);
      return digest_of(data);
    });
    cases.emplace_back(std::string("allreduce-") + algo_name + "-null",
                       [algo](dm::Communicator& comm) {
                         comm.allreduce_sim(4000, kDev, algo);
                         return kFnvBasis;
                       });
  }
  // Fewer elements than ranks: some ring segments are empty.
  cases.emplace_back("allreduce-ring-5", [](dm::Communicator& comm) {
    auto data = pattern(5, comm.rank());
    comm.allreduce(std::span<float>(data), dm::ReduceOp::kSum, kDev, AllreduceAlgo::kRing);
    return digest_of(data);
  });
  // 1000 floats take the tree intra-node phases, 70000 the pipelined ring
  // phases (256 KiB switch).
  for (const std::size_t count : {std::size_t{1000}, std::size_t{70000}}) {
    cases.emplace_back("hierarchical-" + std::to_string(count), [count](dm::Communicator& comm) {
      auto data = pattern(count, comm.rank());
      comm.hierarchical_allreduce(std::span<float>(data), dm::ReduceOp::kSum, kDev);
      return digest_of(data);
    });
    cases.emplace_back("hierarchical-" + std::to_string(count) + "-null",
                       [count](dm::Communicator& comm) {
                         const auto reducer = dm::detail::make_reducer<float>(dm::ReduceOp::kSum);
                         comm.allreduce_custom(nullptr, sizeof(float), count, reducer, kDev,
                                               std::nullopt, /*hierarchical=*/true);
                         return kFnvBasis;
                       });
  }
  return cases;
}

}  // namespace

TEST(Timing, CollectiveCostsArePinned) {
  const std::pair<const char*, dn::Topology> topologies[] = {{"1x3", dn::Topology(1, 3, 3)},
                                                             {"2x2", dn::Topology(2, 2, 1)},
                                                             {"2x3", dn::Topology(2, 3, 3)}};
  std::size_t checked = 0;
  for (const auto& [topo_name, topology] : topologies) {
    for (const auto& [case_name, body] : pinned_collectives()) {
      const std::string name = std::string(topo_name) + "/" + case_name;
      for (const Pin& row : observe(name, topology, body)) {
        const Pin* pin = nullptr;
        for (const Pin& p : kPins) {
          if (name == p.name && p.rank == row.rank) pin = &p;
        }
        const std::string got = literal(name, row);
        if (pin == nullptr) {
          ADD_FAILURE() << "no pin for " << name << " rank " << row.rank << "; observed\n" << got;
          continue;
        }
        ++checked;
        EXPECT_EQ(row.now, pin->now) << got;
        EXPECT_EQ(row.messages, pin->messages) << got;
        EXPECT_EQ(row.bytes, pin->bytes) << got;
        EXPECT_EQ(row.comm_time_s, pin->comm_time_s) << got;
        EXPECT_EQ(row.digest, pin->digest) << got;
      }
    }
  }
  EXPECT_EQ(checked, kPins.size());
}
