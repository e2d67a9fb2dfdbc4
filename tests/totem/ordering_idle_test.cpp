// The token-hold idle rule (OrderingCore::may_hold): the representative may
// hold an arriving token only after kQuietVisitsBeforeHold consecutive quiet
// visits at an unchanged seq; from the second of them on, every member has
// delivered up to that seq. Driven on bare OrderingCores passing one token.
#include <gtest/gtest.h>

#include <memory>

#include "totem/ordering.hpp"

namespace evs {
namespace {

const RingId kRing{1, ProcessId{1}};

/// A ring of OrderingCores with instantaneous, lossless broadcast. Member 0
/// is the representative (kRing.rep).
struct Ring {
  std::vector<std::unique_ptr<OrderingCore>> cores;
  TokenMsg token;

  explicit Ring(std::size_t n) {
    std::vector<ProcessId> members;
    for (std::size_t i = 0; i < n; ++i) {
      members.push_back(ProcessId{static_cast<std::uint32_t>(i + 1)});
    }
    for (ProcessId p : members) {
      cores.push_back(std::make_unique<OrderingCore>(kRing, members, p));
    }
    token.ring = kRing;
    token.rotation = 1;
  }

  /// One token visit at member i, as EvsNode runs it: stamp, broadcast,
  /// deliver, forward.
  void visit(std::size_t i, std::deque<PendingSend> pending = {}) {
    OrderingCore::TokenResult r = cores[i]->on_token(token, pending);
    for (const RegularMsgView& m : r.to_broadcast) {
      for (std::size_t j = 0; j < cores.size(); ++j) {
        if (j != i) cores[j]->on_regular(m);
      }
    }
    (void)cores[i]->drain_deliverable();
    token = r.token_out;
  }

  /// The rest of the rotation after the representative's visit.
  void others() {
    for (std::size_t i = 1; i < cores.size(); ++i) visit(i);
  }
};

std::deque<PendingSend> one_safe(std::uint32_t sender) {
  std::deque<PendingSend> p;
  p.push_back({MsgId{ProcessId{sender}, 1}, Service::Safe, {1}});
  return p;
}

TEST(OrderingIdleTest, RepresentativeMayHoldAfterEnoughQuietVisitsAndNotBefore) {
  // The last message is stamped by the member just before the
  // representative, so the members between them learn it is safe last.
  Ring ring(3);
  ring.visit(0);
  ring.visit(1);
  ring.visit(2, one_safe(3));
  const SeqNum s = ring.token.seq;
  ASSERT_EQ(s, 1u);

  // One quiet visit is never enough: member 2 has not yet seen two
  // rotations of aru == s, so a hold here would delay its Safe delivery of
  // s by the whole hold.
  ring.visit(0);
  EXPECT_EQ(ring.cores[0]->quiet_visits(), 1);
  ring.others();
  EXPECT_FALSE(ring.cores[0]->may_hold(ring.token));
  EXPECT_LT(ring.cores[1]->delivered_upto(), s);

  // Every member has delivered s after two quiet rotations (the proof's
  // minimum); the representative still waits for kQuietVisitsBeforeHold.
  for (int v = 2; v <= OrderingCore::kQuietVisitsBeforeHold; ++v) {
    ring.visit(0);
    EXPECT_EQ(ring.cores[0]->quiet_visits(), v);
    ring.others();
    EXPECT_EQ(ring.cores[0]->may_hold(ring.token), v == OrderingCore::kQuietVisitsBeforeHold)
        << v;
    for (const auto& core : ring.cores) {
      EXPECT_EQ(core->delivered_upto(), s) << to_string(core->self()) << " " << v;
    }
  }
  EXPECT_GE(OrderingCore::kQuietVisitsBeforeHold, 2);
  // Every other member's last visit was quiet as often: a send there now is
  // told the ring may be held and multicasts a TokenHoldCancel.
  for (std::size_t i = 1; i < ring.cores.size(); ++i) {
    EXPECT_TRUE(ring.cores[i]->ring_may_be_held()) << i;
  }
  // The count stays at the threshold while the ring stays idle, so a token
  // released by the hold timer is held again at its next arrival.
  ring.visit(0);
  ring.others();
  EXPECT_TRUE(ring.cores[0]->may_hold(ring.token));
}

TEST(OrderingIdleTest, AnyTrafficRestartsTheCount) {
  Ring ring(3);
  for (int k = 0; k <= OrderingCore::kQuietVisitsBeforeHold; ++k) {
    ring.visit(0);
    ring.others();
  }
  ASSERT_TRUE(ring.cores[0]->may_hold(ring.token));
  ring.visit(0);
  ring.visit(1, one_safe(2));  // a new message changes seq
  EXPECT_EQ(ring.cores[1]->quiet_visits(), 0);
  EXPECT_FALSE(ring.cores[1]->ring_may_be_held());
  ring.visit(2);
  EXPECT_FALSE(ring.cores[0]->may_hold(ring.token));
  ring.visit(0);
  EXPECT_LT(ring.cores[0]->quiet_visits(), OrderingCore::kQuietVisitsBeforeHold);

  // A token carrying a retransmission request is never held.
  TokenMsg with_rtr = ring.token;
  with_rtr.rtr.insert(1);
  EXPECT_FALSE(ring.cores[0]->may_hold(with_rtr));

  // A visit that leaves sends pending (flow control) is not quiet.
  OrderingCore::Options tight;
  tight.max_new_per_token = 1;
  tight.flow_control_window = 1;
  OrderingCore solo(kRing, {ProcessId{1}}, ProcessId{1}, tight);
  std::deque<PendingSend> two;
  two.push_back({MsgId{ProcessId{1}, 1}, Service::Agreed, {}});
  two.push_back({MsgId{ProcessId{1}, 2}, Service::Agreed, {}});
  TokenMsg t;
  t.ring = kRing;
  t.rotation = 1;
  t = solo.on_token(t, two).token_out;
  EXPECT_EQ(two.size(), 1u);
  EXPECT_EQ(solo.quiet_visits(), 0);
  EXPECT_FALSE(solo.may_hold(t));
}

TEST(OrderingIdleTest, SingletonMayHoldAfterOneQuietVisit) {
  // A singleton's own receipt is everyone's receipt.
  Ring ring(1);
  ring.visit(0, one_safe(1));
  EXPECT_FALSE(ring.cores[0]->may_hold(ring.token));
  ring.visit(0);
  EXPECT_TRUE(ring.cores[0]->may_hold(ring.token));
  EXPECT_EQ(ring.cores[0]->delivered_upto(), 1u);
}

}  // namespace
}  // namespace evs
