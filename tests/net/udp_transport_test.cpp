// UdpTransport unit tests: real loopback sockets, driven single-threaded
// via poll_once() so every assertion is on the loop thread.
//
// Every test opens ephemeral-port sockets and skips cleanly (GTEST_SKIP)
// if the environment refuses them — the contract the `live` ctest label
// relies on.
#include "net/udp_transport.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

namespace evs {
namespace {

/// Endpoint that records everything it receives.
struct CaptureEndpoint : Endpoint {
  std::vector<Packet> packets;
  void on_packet(const Packet& packet) override { packets.push_back(packet); }
};

/// Pump both transports until `pred` holds or `spins` iterations pass.
template <typename Pred>
bool pump(UdpTransport& a, UdpTransport& b, Pred pred, int spins = 200) {
  for (int i = 0; i < spins; ++i) {
    if (pred()) return true;
    a.poll_once(1'000);
    b.poll_once(1'000);
  }
  return pred();
}

#define SKIP_IF_NO_SOCKETS(st)                                       \
  do {                                                               \
    if (!(st).ok()) GTEST_SKIP() << "sockets unavailable: " << (st).message(); \
  } while (0)

TEST(UdpTransportTest, OpenBindsAnEphemeralPort) {
  UdpTransport t;
  SKIP_IF_NO_SOCKETS(t.open());
  EXPECT_TRUE(t.is_open());
  EXPECT_NE(t.port(), 0);
  // Idempotent: a second open is a no-op success.
  EXPECT_TRUE(t.open().ok());
}

TEST(UdpTransportTest, UnicastRoundTripBetweenTwoTransports) {
  UdpTransport a, b;
  SKIP_IF_NO_SOCKETS(a.open());
  SKIP_IF_NO_SOCKETS(b.open());
  const ProcessId pa{1}, pb{2};
  a.add_peer(pb, b.port());
  b.add_peer(pa, a.port());
  CaptureEndpoint sink;
  b.attach(pb, &sink);

  a.unicast(pa, pb, {1, 2, 3, 4});
  ASSERT_TRUE(pump(a, b, [&] { return !sink.packets.empty(); }));
  EXPECT_EQ(sink.packets[0].src, pa);
  EXPECT_EQ(sink.packets[0].dst, pb);
  EXPECT_EQ(std::vector<std::uint8_t>(sink.packets[0].payload().begin(), sink.packets[0].payload().end()), (std::vector<std::uint8_t>{1, 2, 3, 4}));
}

TEST(UdpTransportTest, BroadcastIncludesLoopbackSelfDelivery) {
  UdpTransport a, b;
  SKIP_IF_NO_SOCKETS(a.open());
  SKIP_IF_NO_SOCKETS(b.open());
  const ProcessId pa{1}, pb{2};
  a.add_peer(pa, a.port());  // self-registration: the loopback path
  a.add_peer(pb, b.port());
  b.add_peer(pa, a.port());
  b.add_peer(pb, b.port());
  CaptureEndpoint sink_a, sink_b;
  a.attach(pa, &sink_a);
  b.attach(pb, &sink_b);

  a.broadcast(pa, {9});
  ASSERT_TRUE(pump(a, b, [&] {
    return !sink_a.packets.empty() && !sink_b.packets.empty();
  }));
  // The sender heard its own broadcast through the kernel, exactly like
  // broadcast hardware — what the token protocol's self-delivery expects.
  EXPECT_EQ(sink_a.packets[0].src, pa);
  EXPECT_EQ(sink_b.packets[0].src, pa);
}

TEST(UdpTransportTest, BlockPeerDropsBothDirections) {
  UdpTransport a, b;
  SKIP_IF_NO_SOCKETS(a.open());
  SKIP_IF_NO_SOCKETS(b.open());
  const ProcessId pa{1}, pb{2};
  a.add_peer(pb, b.port());
  b.add_peer(pa, a.port());
  CaptureEndpoint sink_a, sink_b;
  a.attach(pa, &sink_a);
  b.attach(pb, &sink_b);

  // Outbound filter at the sender.
  a.block_peer(pb);
  EXPECT_TRUE(a.peer_blocked(pb));
  a.unicast(pa, pb, {1});
  EXPECT_FALSE(pump(a, b, [&] { return !sink_b.packets.empty(); }, 20));
  EXPECT_GE(a.stats().dropped_filter, 1u);

  // Inbound filter at the receiver: the datagram crosses the kernel and
  // dies on arrival, like a packet in flight when the wire was cut.
  a.unblock_peer(pb);
  b.block_peer(pa);
  a.unicast(pa, pb, {2});
  EXPECT_FALSE(pump(a, b, [&] { return !sink_b.packets.empty(); }, 20));
  EXPECT_GE(b.stats().dropped_filter, 1u);

  // Healed: traffic flows again.
  b.unblock_peer(pa);
  a.unicast(pa, pb, {3});
  ASSERT_TRUE(pump(a, b, [&] { return !sink_b.packets.empty(); }));
  EXPECT_EQ(std::vector<std::uint8_t>(sink_b.packets[0].payload().begin(), sink_b.packets[0].payload().end()), (std::vector<std::uint8_t>{3}));
}

TEST(UdpTransportTest, UnknownSourcePortIsDropped) {
  UdpTransport a, b;
  SKIP_IF_NO_SOCKETS(a.open());
  SKIP_IF_NO_SOCKETS(b.open());
  const ProcessId pa{1}, pb{2};
  a.add_peer(pb, b.port());
  // b never registered a's port: a's datagrams are from an unknown peer.
  CaptureEndpoint sink_b;
  b.attach(pb, &sink_b);
  a.unicast(pa, pb, {1});
  EXPECT_FALSE(pump(a, b, [&] { return !sink_b.packets.empty(); }, 20));
  EXPECT_GE(b.stats().dropped_unknown_peer, 1u);
}

TEST(UdpTransportTest, DetachedEndpointCountsDrops) {
  UdpTransport a, b;
  SKIP_IF_NO_SOCKETS(a.open());
  SKIP_IF_NO_SOCKETS(b.open());
  const ProcessId pa{1}, pb{2};
  a.add_peer(pb, b.port());
  b.add_peer(pa, a.port());
  CaptureEndpoint sink_b;
  b.attach(pb, &sink_b);
  b.detach(pb);
  EXPECT_FALSE(b.attached(pb));
  a.unicast(pa, pb, {1});
  EXPECT_FALSE(pump(a, b, [&] { return !sink_b.packets.empty(); }, 20));
  EXPECT_GE(b.stats().dropped_detached, 1u);
}

TEST(UdpTransportTest, SchedulerTimersFireOnWallClock) {
  UdpTransport t;
  SKIP_IF_NO_SOCKETS(t.open());
  bool fired = false;
  t.scheduler().schedule_after(5'000, [&] { fired = true; });  // 5ms
  // The poll loop must wake for the timer even with no traffic at all.
  for (int i = 0; i < 100 && !fired; ++i) t.poll_once(10'000);
  EXPECT_TRUE(fired);
  EXPECT_GE(t.wall_now_us(), 5'000u);
  // And the scheduler's virtual now tracks the wall clock.
  EXPECT_LE(t.scheduler().now(), t.wall_now_us());
}

TEST(UdpTransportTest, PostFromAnotherThreadWakesTheLoop) {
  UdpTransport t;
  SKIP_IF_NO_SOCKETS(t.open());
  std::atomic<bool> ran{false};
  std::thread poster([&] { ASSERT_TRUE(t.post([&] { ran.store(true); })); });
  for (int i = 0; i < 100 && !ran.load(); ++i) t.poll_once(10'000);
  poster.join();
  EXPECT_TRUE(ran.load());
}

TEST(UdpTransportTest, AddPeerAliasingTwoPeersIsAnError) {
  // Regression (pre-fix: silent alias). Registering peer B at an address
  // already held by peer A overwrote the reverse map, so A's datagrams
  // resolved to B from then on — and if A was blocked, they sailed through
  // B's clean filter. The alias must be an explicit error that leaves the
  // peer table untouched.
  UdpTransport a, c;
  SKIP_IF_NO_SOCKETS(a.open());
  SKIP_IF_NO_SOCKETS(c.open());
  const ProcessId pa{1}, pb{2}, pc{3};
  ASSERT_TRUE(c.add_peer(pa, a.local_addr()).ok());
  const Status alias = c.add_peer(pb, a.local_addr());
  EXPECT_EQ(alias.code(), Errc::invalid_argument);

  // End-to-end: with A blocked, A's datagrams must still die in the filter
  // even after the attempted alias — pre-fix they arrived attributed to B.
  ASSERT_TRUE(a.add_peer(pc, c.local_addr()).ok());
  CaptureEndpoint sink_c;
  c.attach(pc, &sink_c);
  c.block_peer(pa);
  const auto filtered_before = c.stats().dropped_filter;
  a.unicast(pa, pc, {0x5a});
  EXPECT_FALSE(pump(a, c, [&] { return !sink_c.packets.empty(); }, 20));
  EXPECT_GT(c.stats().dropped_filter, filtered_before);
}

TEST(UdpTransportTest, ReAddPeerMovesAddressAndReleasesOldKey) {
  UdpTransport a, b, c;
  SKIP_IF_NO_SOCKETS(a.open());
  SKIP_IF_NO_SOCKETS(b.open());
  SKIP_IF_NO_SOCKETS(c.open());
  const ProcessId pa{1}, pb{2};
  ASSERT_TRUE(c.add_peer(pa, a.local_addr()).ok());
  // Same peer, new address: a legitimate remap (restarted node, fresh
  // ephemeral port).
  ASSERT_TRUE(c.add_peer(pa, b.local_addr()).ok());
  // The old key is free again, so another peer may claim it.
  EXPECT_TRUE(c.add_peer(pb, a.local_addr()).ok());
}

TEST(UdpTransportTest, BlockFilterSurvivesReAddPeer) {
  // Regression companion to the alias fix: a blocked peer that rebinds (new
  // ephemeral port, re-add_peer) must STAY blocked — the filter is on the
  // ProcessId, and re-registration must not reset it.
  UdpTransport a1, a2, c;
  SKIP_IF_NO_SOCKETS(a1.open());
  SKIP_IF_NO_SOCKETS(a2.open());
  SKIP_IF_NO_SOCKETS(c.open());
  const ProcessId pa{1}, pc{3};
  ASSERT_TRUE(c.add_peer(pa, a1.local_addr()).ok());
  c.block_peer(pa);

  // "Restart": the same peer re-registers from a different socket.
  ASSERT_TRUE(c.add_peer(pa, a2.local_addr()).ok());
  EXPECT_TRUE(c.peer_blocked(pa));
  ASSERT_TRUE(a2.add_peer(pc, c.local_addr()).ok());
  CaptureEndpoint sink_c;
  c.attach(pc, &sink_c);
  const auto filtered_before = c.stats().dropped_filter;
  a2.unicast(pa, pc, {0x7});
  EXPECT_FALSE(pump(a2, c, [&] { return !sink_c.packets.empty(); }, 20));
  EXPECT_GT(c.stats().dropped_filter, filtered_before);
}

TEST(UdpTransportTest, AddPeerRejectsMalformedAddress) {
  UdpTransport t;
  SKIP_IF_NO_SOCKETS(t.open());
  EXPECT_EQ(t.add_peer(ProcessId{1}, PeerAddr{"not-an-ip", 9}).code(),
            Errc::invalid_argument);
  EXPECT_EQ(t.add_peer(ProcessId{1}, PeerAddr{"256.1.1.1", 9}).code(),
            Errc::invalid_argument);
  EXPECT_EQ(t.block_peer(PeerAddr{"nope", 1}).code(), Errc::invalid_argument);
}

TEST(UdpTransportTest, BlockByAddressDropsUnresolvedSources) {
  // The PeerAddr filter form: drop traffic from an address that never
  // registered as a peer (it would otherwise count as unknown-peer, which
  // is not an intentional cut).
  UdpTransport a, c;
  SKIP_IF_NO_SOCKETS(a.open());
  SKIP_IF_NO_SOCKETS(c.open());
  const ProcessId pa{1}, pc{3};
  ASSERT_TRUE(a.add_peer(pc, c.local_addr()).ok());
  CaptureEndpoint sink_c;
  c.attach(pc, &sink_c);
  ASSERT_TRUE(c.block_peer(a.local_addr()).ok());
  const auto filtered_before = c.stats().dropped_filter;
  a.unicast(pa, pc, {1});
  EXPECT_FALSE(pump(a, c, [&] { return !sink_c.packets.empty(); }, 20));
  EXPECT_GT(c.stats().dropped_filter, filtered_before);
  // Unblock: now the source is merely unknown (never add_peer'd).
  ASSERT_TRUE(c.unblock_peer(a.local_addr()).ok());
  const auto unknown_before = c.stats().dropped_unknown_peer;
  a.unicast(pa, pc, {2});
  EXPECT_FALSE(pump(a, c, [&] { return !sink_c.packets.empty(); }, 20));
  EXPECT_GT(c.stats().dropped_unknown_peer, unknown_before);
}

TEST(UdpTransportTest, MulticastGroupSendIsOneDatagramFanOut) {
  // Real multicast wiring: the receiver joins 239.255.77.1 on loopback, the
  // sender targets the group — ONE datagram on the wire regardless of ring
  // size, with the source still resolved per-peer at the receiver. Group
  // routing depends on the environment, so no-arrival is a skip, not a
  // failure (the loopback fan-out default needs none of this).
  UdpTransport::Options recv_opts;
  recv_opts.multicast_group = "239.255.77.1";
  UdpTransport b(recv_opts);
  SKIP_IF_NO_SOCKETS(b.open());

  UdpTransport::Options send_opts;
  send_opts.multicast_group = "239.255.77.1";
  send_opts.multicast_port = b.port();
  UdpTransport a(send_opts);
  SKIP_IF_NO_SOCKETS(a.open());

  const ProcessId pa{1}, pb{2};
  // The sender's source address is its wildcard-bound port on the loopback
  // route; register it so the receiver can attribute the traffic.
  ASSERT_TRUE(b.add_peer(pa, PeerAddr{"127.0.0.1", a.port()}).ok());
  CaptureEndpoint sink_b;
  b.attach(pb, &sink_b);

  const auto sent_before = a.stats().datagrams_sent;
  a.broadcast(pa, {0x42});
  const bool arrived = pump(a, b, [&] { return !sink_b.packets.empty(); }, 100);
  if (!arrived) {
    GTEST_SKIP() << "multicast not routable over loopback here";
  }
  EXPECT_EQ(sink_b.packets[0].src, pa);
  // One group datagram, not one per registered peer.
  EXPECT_EQ(a.stats().datagrams_sent, sent_before + 1);
}

TEST(UdpTransportTest, MulticastGroupMustBeAMulticastAddress) {
  UdpTransport::Options opts;
  opts.multicast_group = "127.0.0.1";  // not in 224.0.0.0/4
  UdpTransport t(opts);
  const Status st = t.open();
  if (st.code() == Errc::transport_io) GTEST_SKIP() << st.message();
  EXPECT_EQ(st.code(), Errc::invalid_argument);
  EXPECT_FALSE(t.is_open());
}

TEST(UdpTransportTest, OversizedDatagramIsASendError) {
  UdpTransport::Options opts;
  opts.max_datagram_bytes = 512;
  UdpTransport a;
  UdpTransport b(opts);
  SKIP_IF_NO_SOCKETS(a.open());
  SKIP_IF_NO_SOCKETS(b.open());
  const ProcessId pa{1}, pb{2};
  b.add_peer(pa, a.port());
  b.unicast(pb, pa, std::vector<std::uint8_t>(1024, 0));
  EXPECT_EQ(b.stats().send_errors, 1u);
  EXPECT_EQ(b.stats().datagrams_sent, 0u);
}

TEST(UdpTransportTest, SendAccountingIsConsistentUnderBursts) {
  // Loopback rarely produces genuine EAGAIN, so this is an accounting
  // invariant check rather than a forced-backpressure test: every send
  // attempt ends up exactly one of sent / parked-then-sent / dropped.
  UdpTransport::Options opts;
  opts.so_sndbuf = 4096;
  opts.send_backlog_datagrams = 8;
  UdpTransport a(opts), b;
  SKIP_IF_NO_SOCKETS(a.open());
  SKIP_IF_NO_SOCKETS(b.open());
  const ProcessId pa{1}, pb{2};
  a.add_peer(pb, b.port());
  const int kAttempts = 2'000;
  for (int i = 0; i < kAttempts; ++i) {
    a.unicast(pa, pb, std::vector<std::uint8_t>(1024, 0x77));
  }
  for (int i = 0; i < 50; ++i) a.poll_once(0);  // flush any parked backlog
  const auto s = a.stats();
  EXPECT_EQ(s.datagrams_sent + s.dropped_backpressure + s.send_errors,
            static_cast<std::uint64_t>(kAttempts));
  // Once the backlog drained, the backpressure flag must have cleared.
  EXPECT_FALSE(a.backpressured());
}

TEST(UdpTransportTest, SubMillisecondTimerEndsAQuietPollOnTime) {
  // The poll wait is bounded by the next protocol timer at MICROsecond
  // resolution: with no inbound traffic, only the 200us timer ends the
  // wait, and a millisecond-granular poll would round it up to >= 1ms.
  // Each trial is one poll_once() call; the min over trials makes the
  // wall-clock assertion robust to scheduler noise.
  UdpTransport a;
  SKIP_IF_NO_SOCKETS(a.open());
  std::int64_t min_us = std::numeric_limits<std::int64_t>::max();
  for (int trial = 0; trial < 5; ++trial) {
    bool fired = false;
    a.scheduler().schedule_after(200, [&] { fired = true; });
    const auto t0 = std::chrono::steady_clock::now();
    a.poll_once(1'000'000);
    const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    ASSERT_TRUE(fired) << "timer outlived its deadline inside a single quiet poll";
    min_us = std::min<std::int64_t>(min_us, us);
  }
  EXPECT_LT(min_us, 900) << "timer latency floor is above the 200us deadline";
}

TEST(UdpTransportTest, PostedTaskSeesTheCurrentClockAfterAnIdleSpell) {
  // A transport that has been idle for 20 ms or more (an idle ring holding
  // its token sleeps that long) runs a posted task: the task's now() must be
  // the wall clock, not the time of the previous pass, or the timers it
  // arms fire early by the whole idle spell.
  UdpTransport a;
  SKIP_IF_NO_SOCKETS(a.open());
  a.poll_once(0);
  std::this_thread::sleep_for(std::chrono::milliseconds(25));
  SimTime seen = 0;
  SimTime wall = 0;
  ASSERT_TRUE(a.post([&] {
    seen = a.scheduler().now();
    wall = a.wall_now_us();
  }));
  a.poll_once(0);
  ASSERT_NE(wall, 0u) << "posted task did not run";
  EXPECT_LE(wall - seen, 1'000u) << "posted task saw a clock " << (wall - seen)
                                 << " us stale";
}

}  // namespace
}  // namespace evs
