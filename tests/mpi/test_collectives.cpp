#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "dlscale/mpi/comm.hpp"

namespace dm = dlscale::mpi;

TEST(Barrier, AllWorldSizes) {
  for (int n : {1, 2, 3, 5, 8}) {
    dm::run_world(n, [](dm::Communicator& comm) {
      for (int round = 0; round < 3; ++round) comm.barrier();
    });
  }
}

TEST(Bcast, FromEveryRoot) {
  constexpr int kWorld = 5;
  for (int root = 0; root < kWorld; ++root) {
    dm::run_world(kWorld, [root](dm::Communicator& comm) {
      std::vector<int> data(4, comm.rank() == root ? 99 : 0);
      comm.bcast(std::as_writable_bytes(std::span<int>(data)), root);
      for (int v : data) EXPECT_EQ(v, 99);
    });
  }
}

TEST(Bcast, LargePayload) {
  dm::run_world(4, [](dm::Communicator& comm) {
    std::vector<float> data(1 << 16);
    if (comm.rank() == 2) {
      for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<float>(i % 1000);
    }
    comm.bcast(std::as_writable_bytes(std::span<float>(data)), 2);
    EXPECT_FLOAT_EQ(data[999], 999.0f);
    EXPECT_FLOAT_EQ(data[65535], static_cast<float>(65535 % 1000));
  });
}

TEST(BcastBlob, VariableLength) {
  // Non-roots' arguments are ignored; an empty blob arrives empty.
  for (const std::string expected : {"tensor-response-list", "negotiation payload", ""}) {
    for (const int root : {0, 2}) {
      dm::run_world(3, [&](dm::Communicator& comm) {
        const std::string payload = comm.rank() == root ? expected : "ignored";
        const auto blob = comm.bcast_blob(
            std::as_bytes(std::span<const char>(payload.data(), payload.size())), root);
        EXPECT_EQ(std::string(reinterpret_cast<const char*>(blob.data()), blob.size()),
                  expected);
      });
    }
  }
}

TEST(GatherBlobs, VariableLengthAtRoot) {
  // Rank r contributes r+1 bytes of its rank id, except rank 1, whose blob
  // is empty.
  auto length = [](int r) { return static_cast<std::size_t>(r == 1 ? 0 : r + 1); };
  for (const int root : {0, 3}) {
    dm::run_world(4, [&](dm::Communicator& comm) {
      std::vector<std::byte> mine(length(comm.rank()), static_cast<std::byte>(comm.rank()));
      const auto all = comm.gather_blobs(mine, root);
      if (comm.rank() == root) {
        ASSERT_EQ(all.size(), 4u);
        for (int r = 0; r < 4; ++r) {
          EXPECT_EQ(all[static_cast<std::size_t>(r)].size(), length(r));
          for (auto b : all[static_cast<std::size_t>(r)]) {
            EXPECT_EQ(static_cast<int>(b), r);
          }
        }
      } else {
        EXPECT_TRUE(all.empty());
      }
    });
  }
}

TEST(Allgather, RingDistributesBlocks) {
  constexpr int kWorld = 6;
  dm::run_world(kWorld, [](dm::Communicator& comm) {
    std::vector<int> mine{comm.rank() * 10, comm.rank() * 10 + 1};
    std::vector<int> out(static_cast<std::size_t>(2 * comm.size()));
    comm.allgather(std::as_bytes(std::span<const int>(mine)),
                   std::as_writable_bytes(std::span<int>(out)));
    for (int r = 0; r < comm.size(); ++r) {
      EXPECT_EQ(out[static_cast<std::size_t>(2 * r)], r * 10);
      EXPECT_EQ(out[static_cast<std::size_t>(2 * r + 1)], r * 10 + 1);
    }
  });
}

TEST(Allgather, WrongOutputSizeThrows) {
  EXPECT_THROW(dm::run_world(2,
                             [](dm::Communicator& comm) {
                               std::vector<int> mine{1};
                               std::vector<int> out(3);
                               comm.allgather(std::as_bytes(std::span<const int>(mine)),
                                              std::as_writable_bytes(std::span<int>(out)));
                             }),
               std::invalid_argument);
}

TEST(Allgather, LogicalBlockDifferentFromPayloadThrows) {
  // The logical block size sizes each ring segment, so with a payload it
  // must be the real block size.
  EXPECT_THROW(dm::run_world(2,
                             [](dm::Communicator& comm) {
                               std::vector<int> mine{1};
                               std::vector<int> out(2);
                               comm.allgather(std::as_bytes(std::span<const int>(mine)),
                                              std::as_writable_bytes(std::span<int>(out)),
                                              dm::MemSpace::kHost, 64);
                             }),
               std::invalid_argument);
}

TEST(Reduce, SumAtEveryRoot) {
  constexpr int kWorld = 7;
  for (int root : {0, 3, 6}) {
    dm::run_world(kWorld, [root](dm::Communicator& comm) {
      std::vector<double> data{static_cast<double>(comm.rank()), 1.0};
      comm.reduce(std::span<double>(data), dm::ReduceOp::kSum, root, dm::MemSpace::kHost);
      if (comm.rank() == root) {
        EXPECT_DOUBLE_EQ(data[0], kWorld * (kWorld - 1) / 2.0);
        EXPECT_DOUBLE_EQ(data[1], kWorld);
      }
    });
  }
}

TEST(Reduce, MaxAndMin) {
  dm::run_world(5, [](dm::Communicator& comm) {
    std::vector<int> mx{comm.rank()};
    comm.reduce(std::span<int>(mx), dm::ReduceOp::kMax, 0, dm::MemSpace::kHost);
    std::vector<int> mn{comm.rank() + 10};
    comm.reduce(std::span<int>(mn), dm::ReduceOp::kMin, 0, dm::MemSpace::kHost);
    if (comm.rank() == 0) {
      EXPECT_EQ(mx[0], 4);
      EXPECT_EQ(mn[0], 10);
    }
  });
}

TEST(Split, GroupsByColorOrderedByParentRank) {
  dm::run_world(6, [](dm::Communicator& comm) {
    auto sub = comm.split(comm.rank() % 2);
    ASSERT_TRUE(sub.valid());
    EXPECT_EQ(sub.size(), 3);
    EXPECT_EQ(sub.rank(), comm.rank() / 2);
    EXPECT_EQ(sub.global_rank(), comm.rank());
    // The subcommunicator must be fully functional.
    std::vector<int> data{1};
    sub.allreduce(std::span<int>(data), dm::ReduceOp::kSum, dm::MemSpace::kHost);
    EXPECT_EQ(data[0], 3);
  });
}

TEST(Split, NegativeColorYieldsNullComm) {
  dm::run_world(4, [](dm::Communicator& comm) {
    auto sub = comm.split(comm.rank() == 0 ? 0 : -1);
    EXPECT_EQ(sub.valid(), comm.rank() == 0);
    if (sub.valid()) {
      EXPECT_EQ(sub.size(), 1);
    }
  });
}

TEST(Split, NestedSplits) {
  dm::run_world(8, [](dm::Communicator& comm) {
    auto half = comm.split(comm.rank() / 4);  // two groups of 4
    auto quarter = half.split(half.rank() / 2);  // two groups of 2 within each
    EXPECT_EQ(quarter.size(), 2);
    std::vector<int> data{comm.rank()};
    quarter.allreduce(std::span<int>(data), dm::ReduceOp::kSum, dm::MemSpace::kHost);
    // Partner differs by 1 in world rank.
    const int base = (comm.rank() / 2) * 2;
    EXPECT_EQ(data[0], base + base + 1);
  });
}

TEST(Collectives, MixedSequenceKeepsChannelsSeparate) {
  // Interleave several collectives and pt2pt traffic; FIFO matching per
  // channel must keep everything consistent.
  dm::run_world(4, [](dm::Communicator& comm) {
    comm.barrier();
    std::vector<int> a{comm.rank()};
    comm.allreduce(std::span<int>(a), dm::ReduceOp::kSum, dm::MemSpace::kHost);
    EXPECT_EQ(a[0], 6);
    if (comm.rank() == 0) comm.send_value(1, 42, 1234);
    if (comm.rank() == 1) {
      EXPECT_EQ(comm.recv_value<int>(0, 42), 1234);
    }
    comm.barrier();
    std::vector<int> b{1};
    comm.allreduce(std::span<int>(b), dm::ReduceOp::kSum, dm::MemSpace::kHost);
    EXPECT_EQ(b[0], 4);
  });
}

TEST(Scatter, RootDistributesBlocks) {
  dm::run_world(4, [](dm::Communicator& comm) {
    std::vector<int> blocks;
    if (comm.rank() == 1) {
      for (int r = 0; r < 4; ++r) {
        blocks.push_back(r * 100);
        blocks.push_back(r * 100 + 1);
      }
    }
    std::vector<int> mine(2);
    comm.scatter(std::as_bytes(std::span<const int>(blocks)),
                 std::as_writable_bytes(std::span<int>(mine)), 1);
    EXPECT_EQ(mine[0], comm.rank() * 100);
    EXPECT_EQ(mine[1], comm.rank() * 100 + 1);
  });
}

TEST(Scatter, WrongRootSizeThrows) {
  EXPECT_THROW(dm::run_world(2,
                             [](dm::Communicator& comm) {
                               std::vector<int> blocks(3);  // not 2 blocks of 1
                               std::vector<int> mine(1);
                               comm.scatter(std::as_bytes(std::span<const int>(blocks)),
                                            std::as_writable_bytes(std::span<int>(mine)),
                                            0);
                             }),
               std::invalid_argument);
}

TEST(Gather, RootCollectsBlocksInRankOrder) {
  dm::run_world(5, [](dm::Communicator& comm) {
    std::vector<int> mine{comm.rank() * 7};
    std::vector<int> blocks(comm.rank() == 2 ? 5 : 0);
    comm.gather(std::as_bytes(std::span<const int>(mine)),
                std::as_writable_bytes(std::span<int>(blocks)), 2);
    if (comm.rank() == 2) {
      for (int r = 0; r < 5; ++r) EXPECT_EQ(blocks[static_cast<std::size_t>(r)], r * 7);
    }
  });
}

TEST(Alltoall, TransposesBlocks) {
  dm::run_world(4, [](dm::Communicator& comm) {
    // send block r = my_rank * 10 + r; after alltoall, recv block r must
    // be r * 10 + my_rank.
    std::vector<int> send(4), recv(4);
    for (int r = 0; r < 4; ++r) send[static_cast<std::size_t>(r)] = comm.rank() * 10 + r;
    comm.alltoall(std::as_bytes(std::span<const int>(send)),
                  std::as_writable_bytes(std::span<int>(recv)));
    for (int r = 0; r < 4; ++r) {
      EXPECT_EQ(recv[static_cast<std::size_t>(r)], r * 10 + comm.rank());
    }
  });
}

TEST(Alltoall, MismatchedBuffersThrow) {
  EXPECT_THROW(dm::run_world(2,
                             [](dm::Communicator& comm) {
                               std::vector<int> send(2), recv(3);
                               comm.alltoall(std::as_bytes(std::span<const int>(send)),
                                             std::as_writable_bytes(std::span<int>(recv)));
                             }),
               std::invalid_argument);
}

TEST(Alltoall, SingleRank) {
  dm::run_world(1, [](dm::Communicator& comm) {
    std::vector<int> send{42}, recv{0};
    comm.alltoall(std::as_bytes(std::span<const int>(send)),
                  std::as_writable_bytes(std::span<int>(recv)));
    EXPECT_EQ(recv[0], 42);
  });
}
