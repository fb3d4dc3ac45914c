#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "dlscale/mpi/comm.hpp"

namespace dm = dlscale::mpi;

namespace {

[[maybe_unused]] std::span<const std::byte> bytes_of(const std::vector<float>& v) {
  return std::as_bytes(std::span<const float>(v));
}

std::span<std::byte> bytes_of(std::vector<float>& v) {
  return std::as_writable_bytes(std::span<float>(v));
}

}  // namespace

TEST(Pt2Pt, SendRecvRoundtrip) {
  dm::run_world(2, [](dm::Communicator& comm) {
    std::vector<float> data{1.0f, 2.0f, 3.0f};
    if (comm.rank() == 0) {
      comm.send(1, 7, bytes_of(data));
    } else {
      std::vector<float> out(3);
      comm.recv(0, 7, bytes_of(out));
      EXPECT_EQ(out, data);
    }
  });
}

TEST(Pt2Pt, MessagesMatchByTag) {
  dm::run_world(2, [](dm::Communicator& comm) {
    if (comm.rank() == 0) {
      std::vector<float> a{1.0f}, b{2.0f};
      comm.send(1, 100, bytes_of(a));
      comm.send(1, 200, bytes_of(b));
    } else {
      // Receive in the opposite order of sending: tags must disambiguate.
      std::vector<float> b(1), a(1);
      comm.recv(0, 200, bytes_of(b));
      comm.recv(0, 100, bytes_of(a));
      EXPECT_FLOAT_EQ(a[0], 1.0f);
      EXPECT_FLOAT_EQ(b[0], 2.0f);
    }
  });
}

TEST(Pt2Pt, FifoOrderWithinChannel) {
  dm::run_world(2, [](dm::Communicator& comm) {
    constexpr int kMessages = 50;
    if (comm.rank() == 0) {
      for (int i = 0; i < kMessages; ++i) comm.send_value(1, 5, i);
    } else {
      for (int i = 0; i < kMessages; ++i) EXPECT_EQ(comm.recv_value<int>(0, 5), i);
    }
  });
}

TEST(Pt2Pt, SizeMismatchThrows) {
  EXPECT_THROW(dm::run_world(2,
                             [](dm::Communicator& comm) {
                               if (comm.rank() == 0) {
                                 std::vector<float> data{1.0f, 2.0f};
                                 comm.send(1, 1, bytes_of(data));
                               } else {
                                 std::vector<float> out(3);
                                 comm.recv(0, 1, bytes_of(out));
                               }
                             }),
               std::runtime_error);
}

TEST(Pt2Pt, BadRankThrows) {
  EXPECT_THROW(dm::run_world(2,
                             [](dm::Communicator& comm) {
                               if (comm.rank() == 0) comm.send(5, 0, {});
                             }),
               std::out_of_range);
}

TEST(Pt2Pt, ExceptionInOneRankUnblocksOthers) {
  // Rank 1 waits on a message that never comes; rank 0 throws. run_world
  // must abort rank 1's recv and surface rank 0's exception.
  EXPECT_THROW(dm::run_world(2,
                             [](dm::Communicator& comm) {
                               if (comm.rank() == 0) throw std::runtime_error("boom");
                               std::vector<float> out(1);
                               comm.recv(0, 9, bytes_of(out));
                             }),
               std::runtime_error);
}

TEST(Pt2Pt, SendRecvExchange) {
  dm::run_world(2, [](dm::Communicator& comm) {
    std::vector<float> mine{static_cast<float>(comm.rank() + 1)};
    std::vector<float> theirs(1);
    const int peer = 1 - comm.rank();
    comm.sendrecv(peer, 3, bytes_of(mine), peer, 3, bytes_of(theirs));
    EXPECT_FLOAT_EQ(theirs[0], static_cast<float>(peer + 1));
  });
}

// In a two-rank world a blob broadcast is one variable-length message from
// rank 0 to rank 1.
TEST(Pt2Pt, BlobRoundtrip) {
  dm::run_world(2, [](dm::Communicator& comm) {
    const std::string text = comm.rank() == 0 ? "negotiation payload" : "";
    const auto blob =
        comm.bcast_blob(std::as_bytes(std::span<const char>(text.data(), text.size())), 0);
    EXPECT_EQ(std::string(reinterpret_cast<const char*>(blob.data()), blob.size()),
              "negotiation payload");
  });
}

TEST(Pt2Pt, EmptyBlob) {
  dm::run_world(2, [](dm::Communicator& comm) {
    EXPECT_TRUE(comm.bcast_blob({}, 0).empty());
    const auto all = comm.gather_blobs({}, 1);
    if (comm.rank() == 1) {
      ASSERT_EQ(all.size(), 2u);
      EXPECT_TRUE(all[0].empty());
      EXPECT_TRUE(all[1].empty());
    } else {
      EXPECT_TRUE(all.empty());
    }
  });
}

TEST(Pt2Pt, ValueHelpers) {
  dm::run_world(2, [](dm::Communicator& comm) {
    struct Payload {
      double a;
      int b;
    };
    if (comm.rank() == 0) {
      comm.send_value(1, 4, Payload{2.5, 7});
    } else {
      const auto payload = comm.recv_value<Payload>(0, 4);
      EXPECT_DOUBLE_EQ(payload.a, 2.5);
      EXPECT_EQ(payload.b, 7);
    }
  });
}

TEST(Pt2Pt, ManyRanksAllToOne) {
  constexpr int kWorld = 16;
  dm::run_world(kWorld, [](dm::Communicator& comm) {
    if (comm.rank() != 0) {
      comm.send_value(0, 21, comm.rank());
    } else {
      int sum = 0;
      for (int r = 1; r < comm.size(); ++r) sum += comm.recv_value<int>(r, 21);
      EXPECT_EQ(sum, kWorld * (kWorld - 1) / 2);
    }
  });
}

TEST(Pt2Pt, GlobalRankMatchesWorldIdentity) {
  dm::run_world(3, [](dm::Communicator& comm) {
    EXPECT_EQ(comm.global_rank(), comm.rank());
    EXPECT_EQ(comm.size(), 3);
  });
}
