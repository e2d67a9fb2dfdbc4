// Live datagram-batching tests (`ctest -L live-batch`): the zero-copy batch
// hot path — send_batch admission, frame packing, and sendmmsg/recvmmsg
// syscall batching — over real loopback UDP sockets.
//
// Like every live test these are wall-clock and non-deterministic, so the
// assertions are convergence properties plus the full specification check
// over whatever trace actually happened, and everything skips cleanly when
// the environment provides no sockets. The suite also runs under the
// sanitizer preset (live-batch-asan), which is what proves the view spans
// handed across the batch path never outlive their datagrams.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "testkit/live_cluster.hpp"

namespace evs {
namespace {

#define SKIP_IF_NO_SOCKETS(st)                                                 \
  do {                                                                         \
    if (!(st).ok()) GTEST_SKIP() << "sockets unavailable: " << (st).message(); \
  } while (0)

std::vector<std::vector<std::uint8_t>> burst(int n, std::size_t bytes,
                                             std::uint8_t tag) {
  std::vector<std::vector<std::uint8_t>> out;
  for (int i = 0; i < n; ++i) {
    out.emplace_back(bytes, static_cast<std::uint8_t>(tag + i));
  }
  return out;
}

TEST(UdpBatchLiveTest, SendBatchDeliversEverywhereOverRealSockets) {
  LiveCluster cluster(LiveCluster::Options{.num_processes = 3});
  SKIP_IF_NO_SOCKETS(cluster.open());
  ASSERT_TRUE(cluster.await_stable()) << "ring never formed over UDP";

  std::vector<MsgId> sent;
  for (std::size_t p = 0; p < 3; ++p) {
    auto r = cluster.send_batch(p, Service::Agreed,
                                burst(40, 64, static_cast<std::uint8_t>(p)));
    ASSERT_TRUE(r.ok()) << r.status().message();
    sent.insert(sent.end(), r->begin(), r->end());
  }
  ASSERT_TRUE(cluster.await(
      [&] { return cluster.total_delivered() >= sent.size() * 3; }, 20'000'000));
  ASSERT_TRUE(cluster.await_quiesce());
  cluster.stop();

  for (std::size_t p = 0; p < 3; ++p) {
    for (const MsgId& m : sent) {
      EXPECT_TRUE(cluster.sink(p).delivered(m)) << "process " << p;
    }
  }
  // The bursts actually took the packed path: multi-frame broadcast
  // datagrams.
  std::uint64_t packed = 0;
  for (std::size_t p = 0; p < 3; ++p) {
    packed += cluster.node(p).stats().datagrams_packed;
  }
  EXPECT_GT(packed, 0u);
  EXPECT_EQ(cluster.check_report(), "") << cluster.merged_trace().dump();
}

TEST(UdpBatchLiveTest, RingSurvivesSustainedAsyncLoad) {
  // A token visit's fan-out leaves in one sendmmsg burst. Under sustained
  // async bursts the ring must stay live (no artificial token stalls) and
  // conformant.
  LiveCluster::Options opts{.num_processes = 3};
  LiveCluster cluster(opts);
  SKIP_IF_NO_SOCKETS(cluster.open());
  ASSERT_TRUE(cluster.await_stable()) << "ring never formed over UDP";

  constexpr int kRounds = 25;
  constexpr int kBurst = 16;
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t p = 0; p < 3; ++p) {
      cluster.send_async_batch(p, Service::Agreed,
                               burst(kBurst, 32, static_cast<std::uint8_t>(round)));
    }
  }
  // Backpressure may shed some of the async load; what was admitted must
  // deliver everywhere. Quiesce first, then account exactly.
  ASSERT_TRUE(cluster.await_quiesce(30'000'000));
  std::uint64_t admitted = 0;
  for (std::size_t p = 0; p < 3; ++p) {
    admitted += cluster.sample(p).sent;
  }
  ASSERT_TRUE(cluster.await(
      [&] { return cluster.total_delivered() >= admitted * 3; }, 20'000'000));
  cluster.stop();

  EXPECT_GT(admitted, 0u);
  for (std::size_t p = 0; p < 3; ++p) {
    EXPECT_EQ(cluster.sink(p).deliveries.size(), admitted) << "process " << p;
  }
  EXPECT_EQ(cluster.check_report(), "") << cluster.merged_trace().dump();
}

}  // namespace
}  // namespace evs
