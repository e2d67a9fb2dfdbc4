// Node-level unit tests: lifecycle, identifiers, persistence, stats.
#include "evs/node.hpp"

#include <gtest/gtest.h>

#include "testkit/cluster.hpp"

namespace evs {
namespace {

TEST(NodeTest, StartInstallsSingletonRegularConfig) {
  Cluster cluster(Cluster::Options{.num_processes = 1});
  EvsNode& node = cluster.node(0u);
  EXPECT_EQ(node.state(), EvsNode::State::Operational);
  EXPECT_FALSE(node.config().id.transitional);
  EXPECT_EQ(node.config().members, std::vector<ProcessId>{cluster.pid(0)});
  EXPECT_EQ(node.config().id.ring.rep, cluster.pid(0));
}

TEST(NodeTest, MessageIdsAreUniqueAcrossIncarnations) {
  Cluster cluster(Cluster::Options{.num_processes = 1});
  cluster.await_stable(1'000'000);
  const MsgId first = cluster.node(0u).send(Service::Agreed, {1}).value();
  cluster.await_quiesce(1'000'000);
  cluster.crash(cluster.pid(0));
  cluster.recover(cluster.pid(0));
  cluster.await_stable(1'000'000);
  const MsgId second = cluster.node(0u).send(Service::Agreed, {2}).value();
  EXPECT_EQ(first.sender, second.sender);
  EXPECT_NE(first.counter, second.counter);
  // Incarnation is folded into the high bits of the counter.
  EXPECT_GT(second.counter >> 40, first.counter >> 40);
}

TEST(NodeTest, RingSeqMonotoneAcrossCrashes) {
  Cluster cluster(Cluster::Options{.num_processes = 1});
  cluster.await_stable(1'000'000);
  const RingSeq before = cluster.node(0u).config().id.ring.seq;
  cluster.crash(cluster.pid(0));
  cluster.recover(cluster.pid(0));
  cluster.await_stable(1'000'000);
  EXPECT_GT(cluster.node(0u).config().id.ring.seq, before);
}

TEST(NodeTest, CrashStopsActivityAndRecordsFail) {
  Cluster cluster(Cluster::Options{.num_processes = 2});
  cluster.await_stable(2'000'000);
  cluster.crash(cluster.pid(1));
  EXPECT_FALSE(cluster.node(1u).running());
  EXPECT_EQ(cluster.node(1u).state(), EvsNode::State::Down);
  bool saw_fail = false;
  for (const auto& e : cluster.trace().events()) {
    if (e.type == EventType::Fail && e.process == cluster.pid(1)) saw_fail = true;
  }
  EXPECT_TRUE(saw_fail);
  // Double crash is a no-op.
  cluster.crash(cluster.pid(1));
  EXPECT_FALSE(cluster.node(1u).running());
}

TEST(NodeTest, PendingSendsDrainInOrder) {
  Cluster cluster(Cluster::Options{.num_processes = 2});
  cluster.await_stable(2'000'000);
  std::vector<MsgId> sent;
  for (int i = 0; i < 5; ++i) {
    sent.push_back(cluster.node(0u).send(Service::Agreed, {static_cast<std::uint8_t>(i)}).value());
  }
  EXPECT_GT(cluster.node(0u).pending_sends(), 0u);
  cluster.await_quiesce(2'000'000);
  EXPECT_EQ(cluster.node(0u).pending_sends(), 0u);
  // Delivered in submission order (same sender, same token visit).
  const auto ids = cluster.sink(1u).delivered_ids();
  ASSERT_EQ(ids.size(), 5u);
  EXPECT_EQ(ids, sent);
}

TEST(NodeTest, StatsReflectActivity) {
  Cluster cluster(Cluster::Options{.num_processes = 3});
  cluster.await_stable(2'000'000);
  cluster.node(0u).send(Service::Safe, {1});
  cluster.await_quiesce(2'000'000);
  const auto& stats = cluster.node(0u).stats();
  EXPECT_EQ(stats.sent, 1u);
  EXPECT_GE(stats.delivered, 1u);
  EXPECT_GE(stats.conf_changes, 2u);  // singleton boot + merged config
  EXPECT_GE(stats.gathers, 1u);
  EXPECT_GT(stats.tokens_handled, 0u);
}

TEST(NodeTest, StableStorePopulatedByInstall) {
  Cluster cluster(Cluster::Options{.num_processes = 2});
  cluster.await_stable(2'000'000);
  StableStore& store = cluster.store(cluster.pid(0));
  EXPECT_TRUE(store.contains("ring_seq"));
  EXPECT_TRUE(store.contains("last_reg"));
  EXPECT_TRUE(store.contains("incarnation"));
}

TEST(NodeTest, ConfigMembersSortedAndContainSelf) {
  Cluster cluster(Cluster::Options{.num_processes = 4});
  cluster.await_stable(3'000'000);
  for (std::size_t i = 0; i < 4; ++i) {
    const auto& members = cluster.node(i).config().members;
    EXPECT_TRUE(std::is_sorted(members.begin(), members.end()));
    EXPECT_TRUE(cluster.node(i).config().contains(cluster.pid(i)));
    EXPECT_EQ(members.size(), 4u);
  }
}

TEST(NodeTest, SingletonTokenIsPaced) {
  // A one-member ring holds its idle token like any other ring (its
  // representative is itself), so it does not spin the scheduler at
  // link-delay frequency: one visit per hold plus one loopback delay.
  Cluster::Options opts;
  opts.num_processes = 1;
  Cluster cluster(opts);
  cluster.await_stable(1'000'000);
  EvsNode& node = cluster.node(0u);
  const SimTime hold = node.options().token_hold_for(1);
  ASSERT_GT(hold, 0u);
  const std::uint64_t before = node.stats().tokens_handled;
  cluster.run_for(100'000);
  const std::uint64_t tokens = node.stats().tokens_handled - before;
  EXPECT_LE(tokens, 100'000 / hold + 1);
  EXPECT_GE(tokens, 100'000 / (hold + opts.net.max_delay_us) - 1);
  EXPECT_GT(node.metrics().counter("evs.token_holds").value(), 0u);

  // A send releases the held token at once: it is stamped and delivered
  // within one network delay, not after the rest of the hold.
  const SimTime sent_at = cluster.now();
  const MsgId id = node.send(Service::Safe, {7}).value();
  cluster.run_for(opts.net.max_delay_us);
  ASSERT_NE(cluster.sink(0u).find(id), nullptr) << "not delivered within one network delay";
  SimTime delivered_at = 0;
  for (const TraceEvent& e : cluster.trace().events()) {
    if (e.type == EventType::Deliver && e.msg == id) delivered_at = e.time;
  }
  EXPECT_LE(delivered_at - sent_at, opts.net.max_delay_us);
  EXPECT_EQ(cluster.check_report(), "");
}

TEST(NodeTest, LargePayloadRoundTrips) {
  Cluster cluster(Cluster::Options{.num_processes = 2});
  cluster.await_stable(2'000'000);
  std::vector<std::uint8_t> payload(64 * 1024);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 31);
  }
  cluster.node(0u).send(Service::Safe, payload);
  cluster.await_quiesce(2'000'000);
  ASSERT_EQ(cluster.sink(1u).deliveries.size(), 1u);
  EXPECT_EQ(cluster.sink(1u).deliveries[0].payload, payload);
}

TEST(NodeTest, BurstBeyondFlowControlWindowDelivers) {
  Cluster::Options opts;
  opts.num_processes = 3;
  opts.node.ordering.max_new_per_token = 4;  // tiny window
  Cluster cluster(opts);
  cluster.await_stable(2'000'000);
  for (int i = 0; i < 100; ++i) cluster.node(0u).send(Service::Agreed, {1});
  ASSERT_TRUE(cluster.await_quiesce(5'000'000));
  EXPECT_EQ(cluster.sink(2u).deliveries.size(), 100u);
  EXPECT_EQ(cluster.check_report(), "");
}

}  // namespace
}  // namespace evs
