// FaultInjector unit tests: rule matching, determinism, and the Network
// integration points (drop/duplicate/corrupt/delay observable at endpoints).
#include "sim/faults.hpp"

#include <gtest/gtest.h>

#include <map>

#include "net/network.hpp"
#include "totem/messages.hpp"
#include "util/rng.hpp"
#include "wire/codec.hpp"

namespace evs {
namespace {

TEST(FaultRuleTest, MatchesTimeWindow) {
  FaultRule rule;
  rule.from_us = 100;
  rule.until_us = 200;
  EXPECT_FALSE(rule.matches(ProcessId{1}, ProcessId{2}, 99, false));
  EXPECT_TRUE(rule.matches(ProcessId{1}, ProcessId{2}, 100, false));
  EXPECT_TRUE(rule.matches(ProcessId{1}, ProcessId{2}, 199, false));
  EXPECT_FALSE(rule.matches(ProcessId{1}, ProcessId{2}, 200, false));
}

TEST(FaultRuleTest, MatchesDirection) {
  FaultRule rule;
  rule.src = ProcessId{1};
  rule.dst = ProcessId{2};
  EXPECT_TRUE(rule.matches(ProcessId{1}, ProcessId{2}, 0, false));
  EXPECT_FALSE(rule.matches(ProcessId{2}, ProcessId{1}, 0, false));
  EXPECT_FALSE(rule.matches(ProcessId{1}, ProcessId{3}, 0, false));

  FaultRule any_dst;
  any_dst.src = ProcessId{1};
  EXPECT_TRUE(any_dst.matches(ProcessId{1}, ProcessId{9}, 0, false));
  EXPECT_FALSE(any_dst.matches(ProcessId{9}, ProcessId{1}, 0, false));
}

TEST(FaultRuleTest, TokensOnlyFiltersNonTokens) {
  FaultRule rule;
  rule.tokens_only = true;
  EXPECT_FALSE(rule.matches(ProcessId{1}, ProcessId{2}, 0, false));
  EXPECT_TRUE(rule.matches(ProcessId{1}, ProcessId{2}, 0, true));
}

TEST(FaultInjectorTest, DeterministicGivenSeed) {
  const FaultPlan plan = FaultPlan::storm(0.3, 0.3, 0.2);
  auto run = [&plan] {
    FaultInjector inj(plan, Rng(7));
    std::vector<std::uint8_t> results;
    for (int i = 0; i < 200; ++i) {
      std::vector<std::uint8_t> payload(16, static_cast<std::uint8_t>(i));
      const auto action = inj.apply(ProcessId{1}, ProcessId{2},
                                    static_cast<SimTime>(i * 10), payload);
      results.push_back(static_cast<std::uint8_t>(action.drop));
      results.push_back(static_cast<std::uint8_t>(action.duplicate_extra_delays.size()));
      results.push_back(static_cast<std::uint8_t>(action.extra_delay_us & 0xFF));
      results.insert(results.end(), payload.begin(), payload.end());
    }
    return results;
  };
  EXPECT_EQ(run(), run());
}

TEST(FaultInjectorTest, CorruptionFlipsBytesInPlace) {
  FaultRule rule;
  rule.corrupt = 1.0;
  FaultPlan plan = FaultPlan{}.add(rule);
  FaultInjector inj(plan, Rng(3));
  const std::vector<std::uint8_t> original(32, 0xAA);
  std::vector<std::uint8_t> payload = original;
  const auto action = inj.apply(ProcessId{1}, ProcessId{2}, 0, payload);
  EXPECT_TRUE(action.corrupted);
  EXPECT_EQ(payload.size(), original.size());
  EXPECT_NE(payload, original);  // xor with a nonzero mask always changes bytes
  EXPECT_GE(inj.stats().corrupted, 1u);
}

TEST(FaultInjectorTest, DropWinsAndStopsFurtherFaults) {
  FaultRule rule;
  rule.drop = 1.0;
  rule.duplicate = 1.0;
  rule.corrupt = 1.0;
  FaultInjector inj(FaultPlan{}.add(rule), Rng(5));
  std::vector<std::uint8_t> payload{1, 2, 3};
  const auto action = inj.apply(ProcessId{1}, ProcessId{2}, 0, payload);
  EXPECT_TRUE(action.drop);
  EXPECT_TRUE(action.duplicate_extra_delays.empty());
  EXPECT_EQ(inj.stats().dropped, 1u);
  EXPECT_EQ(inj.stats().duplicated, 0u);
  EXPECT_EQ(inj.stats().corrupted, 0u);
}

TEST(FaultInjectorTest, TokenLossPlanTargetsOnlyTokenFrames) {
  FaultInjector inj(FaultPlan::token_loss(1.0), Rng(11));

  TokenMsg token;
  token.ring = RingId{1, ProcessId{1}};
  token.rotation = 1;
  std::vector<std::uint8_t> token_frame = wire::seal_frame(encode_msg(token)).value();
  const auto token_action = inj.apply(ProcessId{1}, ProcessId{2}, 0, token_frame);
  EXPECT_TRUE(token_action.drop);
  EXPECT_EQ(inj.stats().token_dropped, 1u);

  std::vector<std::uint8_t> beacon_frame =
      wire::seal_frame(encode_msg(BeaconMsg{ProcessId{1}, RingId{1, ProcessId{1}}})).value();
  const auto beacon_action = inj.apply(ProcessId{1}, ProcessId{2}, 0, beacon_frame);
  EXPECT_FALSE(beacon_action.drop);

  // A TokenHoldCancel is control traffic, not a token: token_loss never
  // drops the message that wakes a held token.
  std::vector<std::uint8_t> cancel_frame =
      wire::seal_frame(encode_msg(TokenHoldCancelMsg{ProcessId{2}, RingId{1, ProcessId{1}}}))
          .value();
  const auto cancel_action = inj.apply(ProcessId{2}, ProcessId{1}, 0, cancel_frame);
  EXPECT_FALSE(cancel_action.drop);
  EXPECT_EQ(inj.stats().token_dropped, 1u);
}

TEST(FaultInjectorTest, LogIsBoundedAndFormats) {
  FaultRule rule;
  rule.drop = 1.0;
  FaultInjector inj(FaultPlan{}.add(rule), Rng(1));
  for (int i = 0; i < 200; ++i) {
    std::vector<std::uint8_t> payload{9};
    inj.apply(ProcessId{1}, ProcessId{2}, static_cast<SimTime>(i), payload);
  }
  EXPECT_LE(inj.log().size(), 64u);
  EXPECT_EQ(inj.log().back().time, 199u);
  EXPECT_NE(inj.format_log().find("drop"), std::string::npos);
}

// --- Network integration ---

class Recorder : public Endpoint {
 public:
  void on_packet(const Packet& packet) override { packets.push_back(packet); }
  std::vector<Packet> packets;
};

struct FaultNetworkTest : ::testing::Test {
  Scheduler sched;
  Network::Options opts{/*min*/ 10, /*max*/ 10, /*loss*/ 0.0};
  Network net{sched, Rng(1), opts};
  std::map<std::uint32_t, Recorder> recorders;

  ProcessId attach(std::uint32_t id) {
    ProcessId p{id};
    net.attach(p, &recorders[id]);
    return p;
  }
};

TEST_F(FaultNetworkTest, AsymmetricCutDropsOneDirectionOnly) {
  auto a = attach(1);
  auto b = attach(2);
  net.set_fault_plan(FaultPlan::asymmetric_cut(a, b, 0, ~0ull));
  net.unicast(a, b, {1});
  net.unicast(b, a, {2});
  sched.run();
  EXPECT_EQ(recorders[2].packets.size(), 0u);  // a->b cut
  ASSERT_EQ(recorders[1].packets.size(), 1u);  // b->a untouched
  EXPECT_EQ(net.stats().dropped_fault, 1u);
}

TEST_F(FaultNetworkTest, DuplicationDeliversExtraCopies) {
  auto a = attach(1);
  auto b = attach(2);
  FaultRule rule;
  rule.duplicate = 1.0;
  FaultPlan plan = FaultPlan{}.add(rule);
  net.set_fault_plan(plan);
  net.unicast(a, b, {42});
  sched.run();
  EXPECT_EQ(recorders[2].packets.size(), 2u);  // original + one copy
  EXPECT_EQ(net.stats().duplicated_fault, 1u);
}

TEST_F(FaultNetworkTest, LoopbackIsExemptFromFaults) {
  auto a = attach(1);
  attach(2);
  FaultRule rule;
  rule.drop = 1.0;
  net.set_fault_plan(FaultPlan{}.add(rule));
  net.broadcast(a, {5});
  sched.run();
  ASSERT_EQ(recorders[1].packets.size(), 1u);  // own copy always arrives
  EXPECT_EQ(std::vector<std::uint8_t>(recorders[1].packets[0].payload().begin(), recorders[1].packets[0].payload().end()), std::vector<std::uint8_t>{5});
  EXPECT_EQ(recorders[2].packets.size(), 0u);
}

TEST_F(FaultNetworkTest, WindowExpiryStopsInjection) {
  auto a = attach(1);
  auto b = attach(2);
  FaultRule rule;
  rule.drop = 1.0;
  rule.until_us = 100;
  net.set_fault_plan(FaultPlan{}.add(rule));
  net.unicast(a, b, {1});  // t=0: dropped
  sched.run();
  sched.run_until(200);
  net.unicast(a, b, {2});  // t=200: rule expired
  sched.run();
  ASSERT_EQ(recorders[2].packets.size(), 1u);
  EXPECT_EQ(std::vector<std::uint8_t>(recorders[2].packets[0].payload().begin(), recorders[2].packets[0].payload().end()), std::vector<std::uint8_t>{2});
}

TEST_F(FaultNetworkTest, ClearFaultsRestoresCleanDelivery) {
  auto a = attach(1);
  auto b = attach(2);
  FaultRule rule;
  rule.drop = 1.0;
  net.set_fault_plan(FaultPlan{}.add(rule));
  net.unicast(a, b, {1});
  sched.run();
  EXPECT_EQ(recorders[2].packets.size(), 0u);
  net.clear_faults();
  net.unicast(a, b, {2});
  sched.run();
  ASSERT_EQ(recorders[2].packets.size(), 1u);
}

// ---------------------------------------------------------------------------
// stable-storage fault rules

TEST(StorageFaultRuleTest, MatchesProcessAndWindow) {
  StorageFaultRule rule;
  rule.process = ProcessId{2};
  rule.from_us = 100;
  rule.until_us = 200;
  EXPECT_FALSE(rule.matches(ProcessId{1}, 150));
  EXPECT_TRUE(rule.matches(ProcessId{2}, 150));
  EXPECT_FALSE(rule.matches(ProcessId{2}, 99));
  EXPECT_FALSE(rule.matches(ProcessId{2}, 200));

  StorageFaultRule any;
  EXPECT_TRUE(any.matches(ProcessId{7}, 0));
}

TEST(StorageFaultInjectorTest, CertainFaultsMapToWriteFaultKinds) {
  using Kind = StableStore::WriteFault::Kind;
  const auto verdict = [](double fail, double torn, double rot) {
    StorageFaultRule rule;
    rule.write_fail = fail;
    rule.torn = torn;
    rule.rot = rot;
    FaultInjector inj(FaultPlan{}.add(rule), Rng(1));
    return inj.apply_storage(ProcessId{1}, 0, 64);
  };
  EXPECT_EQ(verdict(1, 0, 0).kind, Kind::Fail);
  EXPECT_EQ(verdict(0, 1, 0).kind, Kind::Torn);
  EXPECT_EQ(verdict(0, 0, 1).kind, Kind::Rot);
  EXPECT_EQ(verdict(0, 0, 0).kind, Kind::None);
}

TEST(StorageFaultInjectorTest, TornVerdictKeepsAStrictPrefix) {
  StorageFaultRule rule;
  rule.torn = 1.0;
  FaultInjector inj(FaultPlan{}.add(rule), Rng(7));
  for (int i = 0; i < 100; ++i) {
    const auto f = inj.apply_storage(ProcessId{1}, 0, 64);
    ASSERT_EQ(f.kind, StableStore::WriteFault::Kind::Torn);
    EXPECT_LT(f.keep_bytes, 64u);
  }
  EXPECT_EQ(inj.stats().write_torn, 100u);
  EXPECT_EQ(inj.stats().writes_considered, 100u);
}

TEST(StorageFaultInjectorTest, StatsCountEachFate) {
  FaultInjector inj(FaultPlan::disk_faults(1.0, 0, 0), Rng(3));
  (void)inj.apply_storage(ProcessId{1}, 0, 16);
  (void)inj.apply_storage(ProcessId{2}, 0, 16);
  EXPECT_EQ(inj.stats().write_failed, 2u);
  EXPECT_EQ(inj.stats().writes_considered, 2u);
  EXPECT_EQ(inj.stats().injected_total, 2u);
}

TEST(StorageFaultInjectorTest, NetworkOnlyPlanDrawsNoStorageRandomness) {
  // A plan without storage rules must leave the shared RNG stream untouched
  // when the store consults the injector, or adding a storage hook would
  // perturb every network fault decision and break replay determinism.
  FaultPlan plan = FaultPlan::storm(0.3, 0.3, 0.1);
  plan.seed = 42;
  FaultInjector with_queries(plan, Rng(42));
  FaultInjector without_queries(plan, Rng(42));

  std::vector<std::uint8_t> payload_a{1, 2, 3, 4};
  std::vector<std::uint8_t> payload_b{1, 2, 3, 4};
  for (int i = 0; i < 50; ++i) {
    // Interleave storage queries on one injector only.
    (void)with_queries.apply_storage(ProcessId{1}, 0, 64);
    const auto a = with_queries.apply(ProcessId{1}, ProcessId{2}, 0, payload_a);
    const auto b = without_queries.apply(ProcessId{1}, ProcessId{2}, 0, payload_b);
    EXPECT_EQ(a.drop, b.drop);
    EXPECT_EQ(a.extra_delay_us, b.extra_delay_us);
    EXPECT_EQ(a.duplicate_extra_delays, b.duplicate_extra_delays);
    EXPECT_EQ(payload_a, payload_b);
  }
  EXPECT_EQ(with_queries.stats().writes_considered, 0u);
}

TEST(StorageFaultInjectorTest, DeterministicStorageFaultSequence) {
  const FaultPlan plan = FaultPlan::disk_faults(0.2, 0.2, 0.2);
  FaultInjector a(plan, Rng(9));
  FaultInjector b(plan, Rng(9));
  for (int i = 0; i < 200; ++i) {
    const auto fa = a.apply_storage(ProcessId{1}, 0, 32);
    const auto fb = b.apply_storage(ProcessId{1}, 0, 32);
    ASSERT_EQ(fa.kind, fb.kind);
    ASSERT_EQ(fa.keep_bytes, fb.keep_bytes);
    ASSERT_EQ(fa.rot_offset, fb.rot_offset);
  }
}

TEST(StorageFaultInjectorTest, DiskFaultsWindowGatesInjection) {
  FaultInjector inj(FaultPlan::disk_faults(1.0, 0, 0, 100, 200), Rng(5));
  EXPECT_EQ(inj.apply_storage(ProcessId{1}, 50, 16).kind,
            StableStore::WriteFault::Kind::None);
  EXPECT_EQ(inj.apply_storage(ProcessId{1}, 150, 16).kind,
            StableStore::WriteFault::Kind::Fail);
  EXPECT_EQ(inj.apply_storage(ProcessId{1}, 250, 16).kind,
            StableStore::WriteFault::Kind::None);
}

}  // namespace
}  // namespace evs
