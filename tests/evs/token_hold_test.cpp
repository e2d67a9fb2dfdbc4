// Token hold on an idle ring (DESIGN.md "Token hold"): deterministic sim
// gates on how many token visits an idle ring costs, how fast a held ring
// wakes up, that a hold never delays a delivery, that a lost
// TokenHoldCancel costs at most the hold, and that a stalled holder makes
// no member gather.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "testkit/cluster.hpp"
#include "testkit/corrupt.hpp"
#include "util/rng.hpp"

namespace evs {
namespace {

/// Committed gate: token visits per sim-second, summed over the 5 nodes of
/// an idle default-profile ring (seed 1). Without the hold the token never
/// rests and the ring handles 8,021 visits per sim-second; with it, 5
/// visits per hold plus one rotation (2,022 measured).
constexpr std::uint64_t kIdleVisitsPerSimSecond = 2'100;

/// Committed gate: from send() at a non-representative of a held 5-node
/// ring to Safe delivery at every member, on 10-40 us links: a cancel hop
/// plus three rotations, each hop at the 40 us maximum (measured 400-542
/// us). The hold is token_hold_for(5) = 1,850 us; a timer-released hold
/// could not meet this.
constexpr SimTime kHeldRingSafeDeliveryUs = (1 + 3 * 5) * 40;

std::uint64_t counter(const EvsNode& node, const char* name) {
  const obs::Counter* c = node.metrics().find_counter(name);
  return c == nullptr ? 0 : c->value();
}

std::uint64_t gathers(Cluster& cluster) {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < cluster.size(); ++i) sum += counter(cluster.node(i), "evs.gathers");
  return sum;
}

std::size_t index_of(const Cluster& cluster, ProcessId p) {
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    if (cluster.pid(i) == p) return i;
  }
  ADD_FAILURE() << "no process " << to_string(p);
  return 0;
}

/// The representative's most recent token.hold span, or nullptr.
const obs::Span* last_hold(const Cluster& cluster, ProcessId rep) {
  const obs::Span* last = nullptr;
  for (const obs::Span& s : cluster.spans()->spans()) {
    if (s.name == "token.hold" && s.process == rep) last = &s;
  }
  return last;
}

bool holding(const Cluster& cluster, ProcessId rep) {
  const obs::Span* h = last_hold(cluster, rep);
  return h != nullptr && !h->closed;
}

std::string released_by(const obs::Span& hold) {
  for (const auto& [k, v] : hold.attrs) {
    if (k == "released_by") return v;
  }
  return "";
}

/// Latest Deliver time of `id` over all members, or 0 if some member has
/// not delivered it.
SimTime delivered_everywhere_at(Cluster& cluster, const MsgId& id) {
  std::map<ProcessId, SimTime> at;
  for (const TraceEvent& e : cluster.trace().events()) {
    if (e.type == EventType::Deliver && e.msg == id) at[e.process] = e.time;
  }
  if (at.size() != cluster.size()) return 0;
  SimTime last = 0;
  for (const auto& [p, t] : at) last = std::max(last, t);
  return last;
}

TEST(TokenHoldTest, IdleRingVisitsStayUnderCommittedBound) {
  Cluster cluster(Cluster::Options{.num_processes = 5, .seed = 1});
  ASSERT_TRUE(cluster.await_stable());
  cluster.run_for(100'000);
  const ProcessId rep = cluster.node(0u).config().id.ring.rep;
  std::vector<std::uint64_t> tokens, holds, retransmits;
  for (std::size_t i = 0; i < 5; ++i) {
    tokens.push_back(counter(cluster.node(i), "evs.tokens_handled"));
    holds.push_back(counter(cluster.node(i), "evs.token_holds"));
    retransmits.push_back(counter(cluster.node(i), "evs.token_retransmits"));
  }
  const std::uint64_t gathered = gathers(cluster);
  cluster.run_for(1'000'000);
  std::uint64_t visits = 0;
  for (std::size_t i = 0; i < 5; ++i) {
    const EvsNode& n = cluster.node(i);
    visits += counter(n, "evs.tokens_handled") - tokens[i];
    const std::uint64_t held = counter(n, "evs.token_holds") - holds[i];
    if (n.id() == rep) {
      EXPECT_GT(held, 0u);
    } else {
      EXPECT_EQ(held, 0u) << "only the representative holds";
    }
    EXPECT_EQ(counter(n, "evs.token_retransmits"), retransmits[i])
        << "a hold must not trip the predecessor's retransmit guard";
  }
  EXPECT_EQ(gathers(cluster), gathered);
  EXPECT_LE(visits, kIdleVisitsPerSimSecond);
  EXPECT_LE(3 * kIdleVisitsPerSimSecond, 8'021u);
  EXPECT_TRUE(cluster.stable());
}

TEST(TokenHoldTest, SafeSendIntoHeldRingIsDeliveredWellUnderTheHold) {
  // Short links, as on loopback UDP: a Safe delivery takes a cancel hop
  // plus about three rotations, which must stand clearly apart from the
  // hold itself. (On the default 50-200 us links three rotations are
  // already about as long as the 1,850 us hold.)
  Cluster::Options opts;
  opts.num_processes = 5;
  opts.net.min_delay_us = 10;
  opts.net.max_delay_us = 40;
  opts.enable_spans = true;
  Cluster cluster(opts);
  ASSERT_TRUE(cluster.await_stable());
  const ProcessId rep = cluster.node(0u).config().id.ring.rep;
  const SimTime hold = cluster.node(0u).options().token_hold_for(5);
  ASSERT_LT(2 * kHeldRingSafeDeliveryUs, hold);

  SimTime worst = 0;
  for (std::size_t sender = 0; sender < 5; ++sender) {
    ASSERT_TRUE(cluster.await([&] { return holding(cluster, rep); }, 100'000, 10));
    const SimTime sent_at = cluster.now();
    const MsgId id = cluster.node(sender).send(Service::Safe, {1}).value();
    ASSERT_TRUE(cluster.await(
        [&] { return delivered_everywhere_at(cluster, id) != 0; }, 100'000, 10));
    worst = std::max(worst, delivered_everywhere_at(cluster, id) - sent_at);
    // The representative's own send releases the hold from inside its
    // process; every other member's send multicasts a cancel.
    EXPECT_EQ(released_by(*last_hold(cluster, rep)),
              cluster.pid(sender) == rep ? "send" : "cancel")
        << "sender " << to_string(cluster.pid(sender));
  }
  EXPECT_LE(worst, kHeldRingSafeDeliveryUs);
  EXPECT_EQ(cluster.check_report(), "");
}

TEST(TokenHoldTest, HoldDelaysNoDelivery) {
  // Sporadic Agreed and Safe traffic from every member, with idle gaps long
  // enough for the quiet rule and up to a few holds, so holds start and end
  // all through the run. Trace
  // check: every message stamped before a hold starts has been delivered
  // at every member by then.
  Cluster::Options opts;
  opts.num_processes = 5;
  opts.seed = 7;
  opts.enable_spans = true;
  Cluster cluster(opts);
  ASSERT_TRUE(cluster.await_stable());
  const ProcessId rep = cluster.node(0u).config().id.ring.rep;
  const SimTime ring_up = cluster.now();  // earlier holds are boot singletons'
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    cluster.run_for(1 + rng.below(24'000));
    const std::size_t who = rng.below(5);
    const Service service = rng.chance(0.5) ? Service::Safe : Service::Agreed;
    ASSERT_TRUE(cluster.node(who).send(service, {static_cast<std::uint8_t>(i)}).ok());
  }
  ASSERT_TRUE(cluster.await_quiesce());

  std::map<MsgId, SimTime> stamped;
  std::map<MsgId, std::map<ProcessId, SimTime>> delivered;
  for (const TraceEvent& e : cluster.trace().events()) {
    if (e.type == EventType::Send) stamped[e.msg] = e.time;
    if (e.type == EventType::Deliver) delivered[e.msg][e.process] = e.time;
  }
  ASSERT_EQ(stamped.size(), 200u);
  std::size_t holds = 0;
  std::map<std::string, std::size_t> releases;
  for (const obs::Span& h : cluster.spans()->spans()) {
    if (h.name != "token.hold" || h.start_us < ring_up) continue;
    EXPECT_EQ(h.process, rep);
    ++holds;
    if (h.closed) ++releases[released_by(h)];
    for (const auto& [id, t] : stamped) {
      if (t >= h.start_us) continue;
      const auto& at = delivered[id];
      ASSERT_EQ(at.size(), 5u) << to_string(id) << " undelivered at the hold at "
                               << h.start_us;
      for (const auto& [p, when] : at) {
        EXPECT_LE(when, h.start_us) << to_string(id) << " at " << to_string(p);
      }
    }
  }
  // The schedule exercises every way a hold ends.
  EXPECT_GT(holds, 100u);
  EXPECT_GT(releases["timer"], 0u);
  EXPECT_GT(releases["send"], 0u);
  EXPECT_GT(releases["cancel"], 0u);
  EXPECT_EQ(cluster.check_report(), "");
}

TEST(TokenHoldTest, DroppedCancelsDelayASendByAtMostTheHold) {
  // Every TokenHoldCancel one member sends to the representative is
  // dropped: the rule drops all of its non-token traffic to the
  // representative (its data frames reach the representative through
  // retransmission by the others). Its sends then wait for the hold timer,
  // never much longer, and nobody gathers.
  Cluster::Options opts;
  opts.num_processes = 5;
  opts.enable_spans = true;
  Cluster cluster(opts);
  ASSERT_TRUE(cluster.await_stable());
  const ProcessId rep = cluster.node(0u).config().id.ring.rep;
  const std::size_t sender = (index_of(cluster, rep) + 2) % 5;
  FaultRule cut;
  cut.src = cluster.pid(sender);
  cut.dst = rep;
  cut.data_only = true;
  cut.drop = 1.0;
  cluster.inject_faults(FaultPlan{}.add(cut));
  const SimTime hold = cluster.node(0u).options().token_hold_for(5);
  const SimTime rotation = 5 * opts.net.max_delay_us;

  const std::uint64_t gathered = gathers(cluster);
  SimTime worst = 0;
  for (int k = 0; k < 10; ++k) {
    ASSERT_TRUE(cluster.await([&] { return holding(cluster, rep); }, 100'000, 10));
    const SimTime sent_at = cluster.now();
    const MsgId id = cluster.node(sender).send(Service::Safe, {1}).value();
    ASSERT_TRUE(cluster.await(
        [&] { return delivered_everywhere_at(cluster, id) != 0; }, 100'000, 10));
    worst = std::max(worst, delivered_everywhere_at(cluster, id) - sent_at);
    EXPECT_EQ(released_by(*last_hold(cluster, rep)), "timer");
  }
  EXPECT_EQ(counter(cluster.node(sender), "evs.token_hold_cancels"), 10u);
  EXPECT_GE(cluster.fault_stats().dropped, 10u);
  EXPECT_LE(worst, hold + 4 * rotation);
  EXPECT_EQ(gathers(cluster), gathered);
  cluster.clear_faults();
  ASSERT_TRUE(cluster.await_quiesce());
  EXPECT_EQ(cluster.check_report(), "");
}

/// Hold the idle ring's token, then stall the holder for `stall`: every
/// datagram sent to it during the stall arrives `stall` late, and the held
/// token is released `stall` after its hold timer would have released it.
/// Returns the number of gathers anywhere in the ring meanwhile.
std::uint64_t gathers_after_stalled_hold(SimTime stall) {
  Cluster::Options opts;
  opts.num_processes = 5;
  opts.seed = 3;
  opts.enable_spans = true;
  Cluster cluster(opts);
  EXPECT_TRUE(cluster.await_stable());
  const ProcessId rep = cluster.node(0u).config().id.ring.rep;
  EvsNode& holder = cluster.node(rep);
  const SimTime hold = holder.options().token_hold_for(5);
  cluster.run_for(50'000);  // idle: every member's last visits were quiet
  const std::uint64_t before = gathers(cluster);
  EXPECT_TRUE(cluster.await([&] { return holding(cluster, rep); }, 100'000, 1));
  const SimTime held_at = last_hold(cluster, rep)->start_us;
  FaultRule frozen;
  frozen.dst = rep;
  frozen.from_us = cluster.now();
  frozen.until_us = held_at + stall;
  frozen.delay_spike = 1.0;
  frozen.spike_us = stall;
  cluster.inject_faults(FaultPlan{}.add(frozen));
  EXPECT_TRUE(NodeIntrospect::reschedule_held_release(holder, held_at + hold + stall));
  cluster.run_for(hold + stall + 20'000);
  const std::uint64_t during = gathers(cluster) - before;
  if (during == 0) {
    const auto& spans = cluster.spans()->spans();
    const auto held = std::find_if(spans.begin(), spans.end(), [&](const obs::Span& s) {
      return s.name == "token.hold" && s.process == rep && s.start_us == held_at;
    });
    EXPECT_EQ(released_by(*held), "timer");
  }
  EXPECT_TRUE(cluster.await_stable());
  EXPECT_EQ(cluster.check_report(), "");
  return during;
}

TEST(TokenHoldTest, StalledHolderMakesNoMemberGather) {
  // A stall of the holder below token_loss_for(n) - H - one rotation must
  // make no member gather. Every member's last visit before the hold found
  // the ring idle, so its token-loss timer allows the hold on top of
  // token_loss_for(n): the same stall a spinning ring tolerates, H more
  // than a hold that ate into the timers would leave.
  const EvsNode::Options o;
  const SimTime loss = o.token_loss_for(5);
  const SimTime hold = o.token_hold_for(5);
  const SimTime rotation = 5 * Network::Options{}.max_delay_us;
  const SimTime bound = loss - hold - rotation;
  for (const SimTime stall : {bound / 4, bound / 2, 3 * bound / 4, bound - 1,
                              loss - 2 * rotation}) {
    EXPECT_EQ(gathers_after_stalled_hold(stall), 0u) << "stall " << stall << " us";
  }
  // The timers do fire once the stall outlasts them.
  EXPECT_GT(gathers_after_stalled_hold(loss + hold), 0u);
}

}  // namespace
}  // namespace evs
