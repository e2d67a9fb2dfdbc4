// Adversarial fault storms against the full protocol stack.
//
// The paper promises extended virtual synchrony under any network behaviour
// (Sections 1-2): partitions, remerges, loss, and — on a real LAN —
// duplication, reordering, corruption and asymmetric failures. These tests
// script exactly that through the deterministic FaultInjector and require
// the stack to (a) stay live (the testkit watchdog fails fast otherwise)
// and (b) stay conformant to Specifications 1-7 under the machine checker.
#include <gtest/gtest.h>

#include "testkit/cluster.hpp"
#include "testkit/metrics.hpp"
#include "testkit/workload.hpp"

namespace evs {
namespace {

Cluster::Options storm_options(std::size_t procs, std::uint64_t seed,
                               FaultPlan plan) {
  Cluster::Options opts;
  opts.num_processes = procs;
  opts.seed = seed;
  opts.faults = std::move(plan);
  opts.watchdog_window_us = 500'000;
  return opts;
}

// Partition/heal scripts with traffic under a sustained storm of
// duplication, reordering and corruption, across several seeds. After the
// storm window closes the cluster must quiesce and pass the full checker.
TEST(FaultInjectionTest, SeededStormsOverPartitionScriptsStayConformant) {
  for (std::uint64_t seed : {11ull, 23ull, 47ull}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const SimTime storm_until = 900'000;
    Cluster cluster(storm_options(
        5, seed, FaultPlan::storm(0.05, 0.05, 0.02, 0, storm_until)));
    Rng rng(seed * 1000 + 1);

    ASSERT_TRUE(cluster.await_stable(2'000'000)) << cluster.liveness_report();
    for (int round = 0; round < 4; ++round) {
      if (rng.chance(0.5)) {
        random_partition(cluster, rng);
      } else {
        cluster.heal();
      }
      send_random_burst(cluster, rng, 10);
      cluster.run_for(150'000);
    }
    cluster.heal();
    ASSERT_TRUE(cluster.await_quiesce(20'000'000)) << cluster.liveness_report();
    EXPECT_FALSE(cluster.watchdog_tripped());
    EXPECT_EQ(cluster.check_report(), "");

    // The storm actually happened, and the hardened layers caught it.
    const FaultCounters counters = collect_fault_counters(cluster);
    EXPECT_GT(counters.injected.injected_total, 0u);
    EXPECT_GT(counters.injected.corrupted, 0u);
    EXPECT_GT(counters.rejected_frames, 0u) << to_string(counters);
  }
}

// One-directional link failure: A->B traffic vanishes while B->A flows.
// The membership layer must resolve the asymmetry (both sides end up in a
// consistent configuration) and re-merge once the cut heals.
TEST(FaultInjectionTest, AsymmetricCutResolvesAndHeals) {
  const SimTime cut_from = 200'000;
  const SimTime cut_until = 700'000;
  Cluster::Options opts = storm_options(3, 5, FaultPlan{});
  Cluster cluster(opts);
  ASSERT_TRUE(cluster.await_stable(2'000'000)) << cluster.liveness_report();

  cluster.run_for(cut_from);
  cluster.inject_faults(
      FaultPlan::asymmetric_cut(cluster.pid(0), cluster.pid(1), cut_from, cut_until));
  Rng rng(99);
  send_random_burst(cluster, rng, 6);
  cluster.run_for(cut_until - cut_from + 100'000);

  // The cut window is over; everything must converge back to one
  // configuration of all three processes and pass the checker.
  cluster.clear_faults();
  ASSERT_TRUE(cluster.await_quiesce(20'000'000)) << cluster.liveness_report();
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(cluster.node(i).config().members.size(), 3u);
  }
  EXPECT_EQ(cluster.check_report(), "");
}

// Sustained token loss. Without token retransmission every loss would cost
// a full token-loss timeout and membership gather; with it the ring must
// keep ordering traffic and the retransmit counter must show it worked.
TEST(FaultInjectionTest, TokenLossStormSurvivesViaRetransmission) {
  const SimTime storm_until = 800'000;
  Cluster cluster(storm_options(5, 7, FaultPlan::token_loss(0.25, 0, storm_until)));
  Rng rng(701);

  ASSERT_TRUE(cluster.await_stable(3'000'000)) << cluster.liveness_report();
  for (int round = 0; round < 4; ++round) {
    send_random_burst(cluster, rng, 8);
    cluster.run_for(150'000);
  }
  cluster.clear_faults();
  ASSERT_TRUE(cluster.await_quiesce(20'000'000)) << cluster.liveness_report();
  EXPECT_EQ(cluster.check_report(), "");

  const FaultCounters counters = collect_fault_counters(cluster);
  EXPECT_GT(counters.injected.token_dropped, 0u) << to_string(counters);
  EXPECT_GT(counters.token_retransmits, 0u) << to_string(counters);
}

// A token always travels alone in its datagram, so a tokens_only rule
// reaches every token forward — also those of a holder that broadcast data
// at the same visit. With every node sending steadily, a total token-loss
// window shorter than the token-loss timeout must stop the ring dead: no
// node handles a token until the window closes.
TEST(FaultInjectionTest, TokenLossReachesTokensOfBusyHolders) {
  Cluster cluster(storm_options(3, 5, FaultPlan{}));
  ASSERT_TRUE(cluster.await_stable(3'000'000)) << cluster.liveness_report();
  const auto tokens_handled = [&] {
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      n += cluster.node(i).stats().tokens_handled;
    }
    return n;
  };
  const auto send_steadily = [&](SimTime for_us) {
    for (SimTime t = 0; t < for_us; t += 100) {
      for (std::size_t i = 0; i < cluster.size(); ++i) {
        ASSERT_TRUE(cluster.node(i).send(Service::Agreed, {1, 2, 3}).ok());
      }
      cluster.run_for(100);
    }
  };
  send_steadily(2'000);  // every holder has data to broadcast at its visit
  const SimTime from = cluster.now();
  cluster.inject_faults(FaultPlan::token_loss(1.0, from, from + 10'000));
  send_steadily(1'000);  // tokens forwarded before the window still land
  const std::uint64_t before = tokens_handled();
  send_steadily(9'000);
  EXPECT_EQ(tokens_handled(), before) << "a token slipped past the loss window";
  EXPECT_GT(cluster.fault_stats().token_dropped, 0u);

  cluster.clear_faults();
  ASSERT_TRUE(cluster.await_quiesce(4'000'000)) << cluster.liveness_report();
  EXPECT_EQ(cluster.check_report(), "");
}

// Acceptance scenario from the issue: a 7-process cluster runs the paper's
// Figure 6 partition/remerge sequence with duplication=0.05, reorder=0.05
// and corruption=0.02 active throughout, stays conformant to Specs 1-7 and
// reaches a stable configuration.
TEST(FaultInjectionTest, Fig6PartitionRemergeUnderStorm) {
  FaultPlan plan = FaultPlan::storm(0.05, 0.05, 0.02);
  Cluster cluster(storm_options(7, 4242, std::move(plan)));
  Rng rng(4243);

  ASSERT_TRUE(cluster.await_stable(3'000'000)) << cluster.liveness_report();

  // Figure 6 phase 1: {p,q,r} | {s,t,u,v}, with traffic in both components.
  cluster.partition({{0, 1, 2}, {3, 4, 5, 6}});
  ASSERT_TRUE(cluster.await_stable(5'000'000)) << cluster.liveness_report();
  send_random_burst(cluster, rng, 12);
  cluster.run_for(200'000);

  // Figure 6 phase 2: p isolated; q,r remerge with the other side.
  cluster.partition({{0}, {1, 2, 3, 4, 5, 6}});
  ASSERT_TRUE(cluster.await_stable(5'000'000)) << cluster.liveness_report();
  send_random_burst(cluster, rng, 12);
  cluster.run_for(200'000);

  // Full heal, still under the storm: one configuration of all seven.
  cluster.heal();
  ASSERT_TRUE(cluster.await_stable(8'000'000)) << cluster.liveness_report();
  for (std::size_t i = 0; i < 7; ++i) {
    EXPECT_EQ(cluster.node(i).config().members.size(), 7u);
  }

  // Quiesce without the storm so the full (quiescent) checker applies.
  cluster.clear_faults();
  ASSERT_TRUE(cluster.await_quiesce(20'000'000)) << cluster.liveness_report();
  EXPECT_FALSE(cluster.watchdog_tripped());
  EXPECT_EQ(cluster.check_report(), "");

  const FaultCounters counters = collect_fault_counters(cluster);
  EXPECT_GT(counters.injected.duplicated, 0u);
  EXPECT_GT(counters.injected.corrupted, 0u);
  EXPECT_GT(counters.injected.reordered, 0u);
  EXPECT_GT(counters.rejected_frames, 0u) << to_string(counters);
}

// The full random schedule generator (partitions, crashes, recoveries,
// traffic) under a storm window: the strongest end-to-end property we have.
TEST(FaultInjectionTest, RandomScheduleUnderStormRestabilizes) {
  Cluster cluster(storm_options(4, 31, FaultPlan::storm(0.03, 0.03, 0.01, 0, 500'000)));
  Rng rng(32);
  RandomScheduleOptions schedule;
  schedule.rounds = 5;
  const RandomScheduleStats stats = run_random_schedule(cluster, rng, schedule);
  EXPECT_GT(stats.messages_sent, 0);
  EXPECT_EQ(cluster.check_report(), "");
}

}  // namespace
}  // namespace evs
