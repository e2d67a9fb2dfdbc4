// Adversarial multi-frame datagrams: a node sends a token in a datagram of
// its own, but the network may hand a receiver anything. A datagram that
// packs a data frame and a token frame from a ring that preceded the
// receiver's current one is a delayed duplicate: both frames are rejected
// as stale, nothing is delivered, and it is not a merge signal.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "net/arena.hpp"
#include "testkit/cluster.hpp"
#include "totem/messages.hpp"
#include "wire/codec.hpp"

namespace evs {
namespace {

TEST(StaleDatagramTest, StaleRingMultiFrameDatagramIsRejected) {
  // A data+token datagram from ring R arriving at a member already
  // operational in ring R' > R: the data frame is a stale duplicate from a
  // ring that preceded ours (ring seqs are monotone per process), so it is
  // rejected, and the stale token behind it is ignored. Crafted directly so
  // the scenario is deterministic.
  Cluster cluster;
  ASSERT_TRUE(cluster.await_stable()) << cluster.liveness_report();
  const RingId r1 = cluster.node(0u).config().id.ring;

  // Split {1,2} | {3}: survivors install a higher-seq ring R2.
  cluster.partition({{0, 1}, {2}});
  ASSERT_TRUE(cluster.await([&] {
    const auto& c = cluster.node(0u).config();
    return c.id.ring.seq > r1.seq && c.members.size() == 2;
  }, 4'000'000)) << cluster.liveness_report();

  // Data+token datagram from ring R1, "sent" by pid 2 — a CURRENT
  // member of node 1's new ring, so this is exactly the delayed-duplicate
  // shape (a current member cannot still be operational on a lower ring).
  RegularMsg stale;
  stale.ring = r1;
  stale.seq = 1'000;
  stale.id = MsgId{ProcessId{2}, 777};
  stale.service = Service::Agreed;
  stale.payload = {0xAB};
  TokenMsg stale_token;
  stale_token.ring = r1;
  stale_token.rotation = 999;
  stale_token.seq = 1'000;
  stale_token.aru = 0;
  std::vector<std::uint8_t> dgram;
  ASSERT_TRUE(wire::append_frame(dgram, encode_msg(stale)).ok());
  ASSERT_TRUE(wire::append_frame(dgram, encode_msg(stale_token)).ok());
  Packet p;
  p.src = ProcessId{2};
  p.dst = ProcessId{1};
  p.data = net::make_datagram(std::move(dgram));

  const auto before = cluster.node(0u).stats();
  cluster.node(0u).on_packet(p);
  const auto after = cluster.node(0u).stats();
  EXPECT_EQ(after.stale_rejected, before.stale_rejected + 1);
  EXPECT_EQ(after.delivered, before.delivered);
  EXPECT_EQ(after.gathers, before.gathers) << "not a merge signal";

  // Heal; the synthetic payload must never surface anywhere.
  cluster.partition({{0, 1, 2}});
  ASSERT_TRUE(cluster.await_quiesce(8'000'000)) << cluster.liveness_report();
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    for (const auto& d : cluster.sink(i).deliveries) {
      EXPECT_NE(d.payload, std::vector<std::uint8_t>{0xAB});
    }
  }
  EXPECT_EQ(cluster.check_report(), "");
}

}  // namespace
}  // namespace evs
