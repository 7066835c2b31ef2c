// Tests for the virtual message-passing runtime: point-to-point semantics,
// collectives (parameterized over rank counts), sub-communicators, and
// failure propagation.
#include <gtest/gtest.h>

#include "vmp/communicator.hpp"

namespace tvviz {
namespace {

using vmp::Cluster;
using vmp::Communicator;
using vmp::kAnySource;
using vmp::kAnyTag;

util::Bytes bytes_of(std::initializer_list<std::uint8_t> init) {
  return util::Bytes(init);
}

TEST(Vmp, PingPong) {
  Cluster::run(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 7, bytes_of({1, 2, 3}));
      const auto reply = comm.recv(1, 8);
      EXPECT_EQ(reply.payload, bytes_of({4, 5}));
    } else {
      const auto msg = comm.recv(0, 7);
      EXPECT_EQ(msg.payload, bytes_of({1, 2, 3}));
      EXPECT_EQ(msg.source, 0);
      EXPECT_EQ(msg.tag, 7);
      comm.send(0, 8, bytes_of({4, 5}));
    }
  });
}

TEST(Vmp, TagSelectiveReceive) {
  Cluster::run(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 1, bytes_of({1}));
      comm.send(1, 2, bytes_of({2}));
    } else {
      // Receive out of order by tag.
      EXPECT_EQ(comm.recv(0, 2).payload, bytes_of({2}));
      EXPECT_EQ(comm.recv(0, 1).payload, bytes_of({1}));
    }
  });
}

TEST(Vmp, AnySourceReceivesFromAll) {
  constexpr int kRanks = 5;
  Cluster::run(kRanks, [](Communicator& comm) {
    if (comm.rank() == 0) {
      std::vector<bool> seen(kRanks, false);
      for (int i = 1; i < kRanks; ++i) {
        const auto msg = comm.recv(kAnySource, kAnyTag);
        EXPECT_FALSE(seen[static_cast<std::size_t>(msg.source)]);
        seen[static_cast<std::size_t>(msg.source)] = true;
        EXPECT_EQ(msg.payload[0], msg.source);
      }
    } else {
      comm.send(0, 3, bytes_of({static_cast<std::uint8_t>(comm.rank())}));
    }
  });
}

TEST(Vmp, FifoPerSourceOrdering) {
  Cluster::run(2, [](Communicator& comm) {
    constexpr int kCount = 200;
    if (comm.rank() == 0) {
      for (int i = 0; i < kCount; ++i)
        comm.send(1, 5, bytes_of({static_cast<std::uint8_t>(i)}));
    } else {
      for (int i = 0; i < kCount; ++i)
        EXPECT_EQ(comm.recv(0, 5).payload,
                  bytes_of({static_cast<std::uint8_t>(i)}));
    }
  });
}

TEST(Vmp, SendRecvExchange) {
  Cluster::run(2, [](Communicator& comm) {
    const auto peer = 1 - comm.rank();
    const auto reply = comm.sendrecv(
        peer, 11, bytes_of({static_cast<std::uint8_t>(comm.rank())}));
    EXPECT_EQ(reply.payload[0], peer);
  });
}

class VmpCollectives : public ::testing::TestWithParam<int> {};

TEST_P(VmpCollectives, BcastFromEveryRoot) {
  const int p = GetParam();
  Cluster::run(p, [&](Communicator& comm) {
    for (int root = 0; root < p; ++root) {
      util::Bytes payload;
      if (comm.rank() == root)
        payload = bytes_of({static_cast<std::uint8_t>(root + 1), 42});
      const auto out = comm.bcast(root, payload);
      ASSERT_EQ(out.size(), 2u);
      EXPECT_EQ(out[0], root + 1);
      EXPECT_EQ(out[1], 42);
    }
  });
}

TEST_P(VmpCollectives, GatherCollectsInRankOrder) {
  const int p = GetParam();
  Cluster::run(p, [&](Communicator& comm) {
    const auto all = comm.gather(
        0, bytes_of({static_cast<std::uint8_t>(comm.rank() * 3)}));
    if (comm.rank() == 0) {
      ASSERT_EQ(static_cast<int>(all.size()), p);
      for (int i = 0; i < p; ++i) EXPECT_EQ(all[static_cast<std::size_t>(i)][0], i * 3);
    } else {
      EXPECT_TRUE(all.empty());
    }
  });
}

TEST_P(VmpCollectives, AllreduceAgreesEverywhere) {
  const int p = GetParam();
  Cluster::run(p, [&](Communicator& comm) {
    const auto out = comm.allreduce({1.0, static_cast<double>(comm.rank())});
    ASSERT_EQ(out.size(), 2u);
    EXPECT_DOUBLE_EQ(out[0], p);
    EXPECT_DOUBLE_EQ(out[1], p * (p - 1) / 2.0);
  });
}

TEST_P(VmpCollectives, SplitByParity) {
  const int p = GetParam();
  Cluster::run(p, [&](Communicator& comm) {
    Communicator sub = comm.split(comm.rank() % 2);
    const int expected_size = comm.rank() % 2 == 0 ? (p + 1) / 2 : p / 2;
    EXPECT_EQ(sub.size(), expected_size);
    EXPECT_EQ(sub.rank(), comm.rank() / 2);
    // Traffic stays inside the split group.
    const auto sum = sub.allreduce({1.0});
    EXPECT_DOUBLE_EQ(sum[0], expected_size);
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, VmpCollectives,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8));

TEST(Vmp, SplitIsolatesSiblingTraffic) {
  Cluster::run(4, [](Communicator& comm) {
    Communicator sub = comm.split(comm.rank() / 2);
    // Each pair exchanges; tags are identical across groups — traffic must
    // not cross because the contexts differ.
    const int peer = 1 - sub.rank();
    const auto reply = sub.sendrecv(
        peer, 77, bytes_of({static_cast<std::uint8_t>(comm.rank())}));
    const int expected_world_rank = (comm.rank() / 2) * 2 + peer;
    EXPECT_EQ(reply.payload[0], expected_world_rank);
  });
}

TEST(Vmp, RankExceptionPropagatesAndUnblocksPeers) {
  EXPECT_THROW(
      Cluster::run(3,
                   [](Communicator& comm) {
                     if (comm.rank() == 1)
                       throw std::runtime_error("rank 1 died");
                     // Peers block forever unless the poison wakes them.
                     (void)comm.recv(kAnySource, 12345);
                   }),
      std::runtime_error);
}

TEST(Vmp, ZeroRanksRejected) {
  EXPECT_THROW(Cluster::run(0, [](Communicator&) {}), std::invalid_argument);
}

TEST(Vmp, LargePayloadIntegrity) {
  Cluster::run(2, [](Communicator& comm) {
    constexpr std::size_t kSize = 1 << 20;
    if (comm.rank() == 0) {
      util::Bytes big(kSize);
      for (std::size_t i = 0; i < kSize; ++i)
        big[i] = static_cast<std::uint8_t>(i * 2654435761u >> 13);
      comm.send(1, 1, std::move(big));
    } else {
      const auto msg = comm.recv(0, 1);
      ASSERT_EQ(msg.payload.size(), kSize);
      for (std::size_t i = 0; i < kSize; i += 4097)
        EXPECT_EQ(msg.payload[i],
                  static_cast<std::uint8_t>(i * 2654435761u >> 13));
    }
  });
}

}  // namespace
}  // namespace tvviz
