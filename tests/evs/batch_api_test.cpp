// send_batch / deliver-batch semantics: atomic admission on the send side,
// grouped zero-copy views on the delivery side, and the batching counters.
//
// send_batch is all-or-nothing: one oversized payload or a batch that does
// not fit under max_pending_sends rejects the whole call with nothing
// queued, so a producer never has to unpick a half-accepted burst. The
// delivery batch callback receives every message a deliver pass readied,
// with payload spans valid for the callback only. A node has one delivery
// slot: the latest registration, batch or per-message, receives every
// delivery — including recovery-time transitional ones — exactly once.
// Its one configuration slot works the same way for configuration changes.
#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <span>
#include <string>
#include <utility>

#include "testkit/cluster.hpp"

namespace evs {
namespace {

std::vector<std::vector<std::uint8_t>> payloads_of(int n, std::size_t bytes) {
  std::vector<std::vector<std::uint8_t>> out;
  for (int i = 0; i < n; ++i) {
    out.emplace_back(bytes, static_cast<std::uint8_t>(i));
  }
  return out;
}

TEST(SendBatchTest, BatchDeliversEverywhereInOrder) {
  Cluster cluster;
  ASSERT_TRUE(cluster.await_stable());
  auto sent = cluster.node(0u).send_batch(Service::Agreed, payloads_of(50, 16));
  ASSERT_TRUE(sent.ok());
  ASSERT_EQ(sent->size(), 50u);
  // Ids are consecutive: one bookkeeping pass, no interleaved admissions.
  for (std::size_t i = 1; i < sent->size(); ++i) {
    EXPECT_EQ((*sent)[i].counter, (*sent)[i - 1].counter + 1);
  }
  ASSERT_TRUE(cluster.await_quiesce());
  for (std::size_t p = 0; p < cluster.size(); ++p) {
    const auto ids = cluster.sink(p).delivered_ids();
    ASSERT_EQ(ids.size(), 50u) << "process " << p;
    EXPECT_EQ(ids, *sent) << "process " << p;
  }
  EXPECT_EQ(cluster.check_report(), "");
}

TEST(SendBatchTest, OversizedPayloadRejectsWholeBatch) {
  Cluster cluster;
  ASSERT_TRUE(cluster.await_stable());
  EvsNode& n = cluster.node(0u);
  auto batch = payloads_of(3, 8);
  batch.push_back(
      std::vector<std::uint8_t>(EvsNode::Options{}.max_payload_bytes + 1, 0));
  auto sent = n.send_batch(Service::Agreed, std::move(batch));
  EXPECT_FALSE(sent.ok());
  EXPECT_EQ(sent.code(), Errc::payload_too_large);
  EXPECT_EQ(n.pending_sends(), 0u);  // nothing queued
}

TEST(SendBatchTest, BackpressureRejectsWholeBatchAtomically) {
  Cluster::Options opts;
  opts.node.max_pending_sends = 10;
  Cluster cluster(opts);
  ASSERT_TRUE(cluster.await_stable());
  EvsNode& n = cluster.node(0u);
  ASSERT_TRUE(n.send_batch(Service::Agreed, payloads_of(8, 4)).ok());
  // 8 queued + 3 > 10: rejected, and the 8 already queued are untouched.
  auto sent = n.send_batch(Service::Agreed, payloads_of(3, 4));
  EXPECT_FALSE(sent.ok());
  EXPECT_EQ(sent.code(), Errc::backpressure);
  EXPECT_EQ(n.pending_sends(), 8u);
  // Exactly at the cap fits.
  EXPECT_TRUE(n.send_batch(Service::Agreed, payloads_of(2, 4)).ok());
  EXPECT_EQ(n.pending_sends(), 10u);
  ASSERT_TRUE(cluster.await_quiesce());
  EXPECT_EQ(cluster.sink(2u).deliveries.size(), 10u);
}

TEST(SendBatchTest, RejectedBatchWithRoomAlreadyFreeFiresDrainImmediately) {
  // Regression: a batch rejected while pending_ is ALREADY at or below the
  // half-cap mark must fire the drain callback on the rejection path itself.
  // The single-send path never faces this (rejection implies pending == cap,
  // far above half-cap), so the hysteresis check only ran on token visits —
  // a batch-rejected sender could stall until unrelated ring traffic, or
  // forever on an idle ring.
  Cluster::Options opts;
  opts.node.max_pending_sends = 10;
  Cluster cluster(opts);
  ASSERT_TRUE(cluster.await_stable()) << cluster.liveness_report();
  EvsNode& n = cluster.node(0u);
  int drained = 0;
  n.set_on_send_drain([&] { ++drained; });
  ASSERT_TRUE(n.send_batch(Service::Agreed, payloads_of(3, 4)).ok());
  // 3 queued + 8 > 10: rejected. pending == 3 <= half-cap == 5, so the room
  // the callback advertises already exists.
  auto sent = n.send_batch(Service::Agreed, payloads_of(8, 4));
  ASSERT_FALSE(sent.ok());
  ASSERT_EQ(sent.code(), Errc::backpressure);
  // No virtual time has advanced since the rejection — no token visit can
  // have run the check for us. The rejection itself must have.
  EXPECT_EQ(drained, 1);
  // The flag cleared with the callback: the next fitting batch is accepted.
  EXPECT_TRUE(n.send_batch(Service::Agreed, payloads_of(7, 4)).ok());
  ASSERT_TRUE(cluster.await_quiesce()) << cluster.liveness_report();
  EXPECT_EQ(cluster.sink(1u).deliveries.size(), 10u);
  EXPECT_EQ(cluster.check_report(), "");
}

TEST(SendBatchTest, BatchRejectedAtCapFiresDrainAfterTokenDrain) {
  // The classic shape: queue full, batch rejected, drain fires only after a
  // token visit actually empties pending_ below half-cap.
  Cluster::Options opts;
  opts.node.max_pending_sends = 8;
  Cluster cluster(opts);
  ASSERT_TRUE(cluster.await_stable()) << cluster.liveness_report();
  EvsNode& n = cluster.node(0u);
  int drained = 0;
  n.set_on_send_drain([&] { ++drained; });
  ASSERT_TRUE(n.send_batch(Service::Agreed, payloads_of(8, 4)).ok());
  auto sent = n.send_batch(Service::Agreed, payloads_of(1, 4));
  ASSERT_FALSE(sent.ok());
  EXPECT_EQ(drained, 0);  // queue still full: nothing to advertise yet
  ASSERT_TRUE(cluster.await_quiesce()) << cluster.liveness_report();
  EXPECT_EQ(drained, 1);
  EXPECT_EQ(cluster.check_report(), "");
}

TEST(DeliverBatchTest, BatchHandlerSeesGroupedViewsAndSuppressesPerMessage) {
  Cluster cluster;
  ASSERT_TRUE(cluster.await_stable());

  // Re-register handlers on node 2: count per-message callbacks, collect
  // batch sizes and copy payloads out of the views (they are only valid for
  // the duration of the callback).
  int per_message = 0;
  std::vector<std::size_t> batch_sizes;
  std::vector<std::vector<std::uint8_t>> payloads;
  EvsNode& observer = cluster.node(2u);
  observer.set_on_deliver([&](const EvsNode::Delivery&) { ++per_message; });
  observer.set_on_deliver_batch([&](std::span<const EvsNode::DeliveryView> batch) {
    EXPECT_FALSE(batch.empty());
    batch_sizes.push_back(batch.size());
    for (const auto& v : batch) {
      ASSERT_NE(v.config, nullptr);
      EXPECT_FALSE(v.config->id.transitional);
      payloads.emplace_back(v.payload.begin(), v.payload.end());
    }
  });

  auto sent = cluster.node(0u).send_batch(Service::Agreed, payloads_of(40, 32));
  ASSERT_TRUE(sent.ok());
  ASSERT_TRUE(cluster.await_quiesce());

  EXPECT_EQ(per_message, 0) << "batch handler must preempt per-message path";
  EXPECT_EQ(payloads.size(), 40u);
  const std::size_t total =
      std::accumulate(batch_sizes.begin(), batch_sizes.end(), std::size_t{0});
  EXPECT_EQ(total, 40u);
  // Packing amortizes: a 40-message burst must not arrive one callback per
  // message (the whole point of the batch API).
  EXPECT_LT(batch_sizes.size(), 40u);
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    EXPECT_EQ(payloads[i], std::vector<std::uint8_t>(32, static_cast<std::uint8_t>(i)));
  }

  // The batching counters moved: the sender packed multi-frame datagrams.
  const auto stats = cluster.node(0u).stats();
  EXPECT_GT(stats.datagrams_packed, 0u);
  EXPECT_GT(cluster.node(2u).metrics().histogram("evs.deliver_batch_size").count(), 0u);
  EXPECT_EQ(cluster.check_report(), "");
}

/// Which setter runs last on the observed node.
enum class LastSetter { Batch, PerMessage };

struct SlotRun {
  /// (message, configuration) pairs the node delivered after registration,
  /// per the trace, each with its multiplicity.
  std::map<std::pair<MsgId, ConfigId>, int> traced;
  std::map<std::pair<MsgId, ConfigId>, int> batch_seen;
  std::map<std::pair<MsgId, ConfigId>, int> per_message_seen;
  int transitional_traced{0};
  /// Configuration changes the node installed after registration, in trace
  /// order, and those the re-registered config handler received.
  std::vector<std::string> configs_traced;
  std::vector<std::string> configs_seen;
  int transitional_configs_traced{0};
  /// Configurations the harness sink recorded after the re-registration.
  std::size_t sink_configs_after{0};
};

/// Node 1 of a 3-node ring registers both delivery forms in the given
/// order, and a config handler over the one the harness wired; safe bursts
/// are in flight when {0} is cut off, so the {1, 2} side delivers part of
/// the backlog in the transitional configuration.
SlotRun run_slot_scenario(LastSetter last, SimTime cut_after_us) {
  Cluster cluster;
  SlotRun run;
  if (!cluster.await_stable()) return run;
  EvsNode& node = cluster.node(1u);
  const auto batch = [&](std::span<const EvsNode::DeliveryView> views) {
    for (const auto& v : views) ++run.batch_seen[{v.id, v.config->id}];
  };
  const auto per_message = [&](const EvsNode::Delivery& d) {
    ++run.per_message_seen[{d.id, d.config.id}];
  };
  if (last == LastSetter::Batch) {
    node.set_on_deliver(per_message);
    node.set_on_deliver_batch(batch);
  } else {
    node.set_on_deliver_batch(batch);
    node.set_on_deliver(per_message);
  }
  node.set_on_config_change(
      [&](const Configuration& c) { run.configs_seen.push_back(to_string(c.id)); });
  const std::size_t sink_configs_from = cluster.sink(1u).configs.size();
  const std::size_t trace_from = cluster.trace().size();
  for (std::size_t p = 0; p < cluster.size(); ++p) {
    if (!cluster.node(p).send_batch(Service::Safe, payloads_of(8, 16)).ok()) return run;
  }
  cluster.run_for(cut_after_us);
  cluster.partition({{0}, {1, 2}});
  if (!cluster.await_quiesce()) return run;
  const auto& events = cluster.trace().events();
  for (std::size_t i = trace_from; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    if (e.process != node.id()) continue;
    if (e.type == EventType::DeliverConf) {
      run.configs_traced.push_back(to_string(e.config));
      if (e.config.transitional) ++run.transitional_configs_traced;
    }
    if (e.type != EventType::Deliver) continue;
    ++run.traced[{e.msg, e.config}];
    if (e.config.transitional) ++run.transitional_traced;
  }
  run.sink_configs_after = cluster.sink(1u).configs.size() - sink_configs_from;
  EXPECT_EQ(cluster.check_report(), "");
  return run;
}

void expect_last_setter_owns_stream(LastSetter last) {
  // The sim is deterministic: find a cut that lands while safe messages
  // are still short of their horizon.
  SlotRun run;
  for (SimTime cut : {300, 500, 700, 900, 1'200, 1'600, 2'000}) {
    run = run_slot_scenario(last, cut);
    if (run.transitional_traced > 0) break;
  }
  ASSERT_GT(run.transitional_traced, 0) << "no cut produced transitional deliveries";
  const auto& owner = last == LastSetter::Batch ? run.batch_seen : run.per_message_seen;
  const auto& other = last == LastSetter::Batch ? run.per_message_seen : run.batch_seen;
  // Every delivery, in its own configuration, exactly once: the traced
  // multiset holds each (message, configuration) pair once, and the owner
  // saw exactly that multiset.
  EXPECT_EQ(owner, run.traced);
  int transitional_seen = 0;
  for (const auto& [key, count] : owner) {
    EXPECT_EQ(count, 1);
    if (key.second.transitional) transitional_seen += count;
  }
  EXPECT_EQ(transitional_seen, run.transitional_traced);
  EXPECT_TRUE(other.empty()) << "the earlier registration must be replaced";
  // The config slot: the handler registered last received every traced
  // configuration change, transitional included, once each in trace order,
  // and the harness sink it replaced recorded none.
  ASSERT_GT(run.transitional_configs_traced, 0)
      << "the cut installed no transitional configuration";
  EXPECT_EQ(run.configs_seen, run.configs_traced);
  EXPECT_EQ(run.sink_configs_after, 0u);
}

TEST(DeliverSlotTest, BatchRegisteredLastReceivesTransitionalDeliveriesOnce) {
  expect_last_setter_owns_stream(LastSetter::Batch);
}

TEST(DeliverSlotTest, PerMessageRegisteredLastReceivesTransitionalDeliveriesOnce) {
  expect_last_setter_owns_stream(LastSetter::PerMessage);
}

}  // namespace
}  // namespace evs
