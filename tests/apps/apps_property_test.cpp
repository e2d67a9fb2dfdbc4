// Application-level convergence properties under randomized fault
// schedules: whatever the partition/crash history, once the network heals
// and traffic drains, replicas agree.
#include <gtest/gtest.h>

#include <memory>

#include "apps/airline.hpp"
#include "apps/atm.hpp"
#include "storage/stable_store.hpp"
#include "testkit/cluster.hpp"
#include "util/rng.hpp"

namespace evs {
namespace {

using apps::AirlineAgent;
using apps::AtmAgent;

class AirlineChurnTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AirlineChurnTest, LedgersConvergeAfterAnySchedule) {
  const std::uint64_t seed = GetParam();
  Cluster::Options opts;
  opts.num_processes = 4;
  opts.seed = seed;
  Cluster cluster(opts);
  std::vector<std::unique_ptr<AirlineAgent>> offices;
  for (std::size_t i = 0; i < 4; ++i) {
    offices.push_back(std::make_unique<AirlineAgent>(
        cluster.node(i), AirlineAgent::Options{100'000, 4, 1.0}));
  }
  Rng rng(seed * 3 + 1);
  ASSERT_TRUE(cluster.await_stable(5'000'000));

  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 10; ++i) {
      offices[rng.below(4)]->request_sale(static_cast<std::uint32_t>(1 + rng.below(3)));
    }
    if (rng.chance(0.5)) {
      cluster.partition({{0, 1}, {2, 3}});
    } else {
      cluster.heal();
    }
    cluster.run_for(80'000);
  }
  cluster.heal();
  ASSERT_TRUE(cluster.await_quiesce(30'000'000));
  // One more sync round so late counters propagate (state sync happens on
  // configuration changes; after the last merge all replicas exchanged).
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(offices[i]->counters(), offices[0]->counters()) << "office " << i;
    EXPECT_EQ(offices[i]->sold(), offices[0]->sold());
  }
  EXPECT_EQ(cluster.check_report(), "");
}

INSTANTIATE_TEST_SUITE_P(Seeds, AirlineChurnTest, ::testing::Range<std::uint64_t>(1, 7));

class AtmChurnTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AtmChurnTest, BalancesConvergeAfterAnySchedule) {
  const std::uint64_t seed = GetParam();
  Cluster::Options opts;
  opts.num_processes = 4;
  opts.seed = seed;
  Cluster cluster(opts);
  std::vector<std::unique_ptr<AtmAgent>> atms;
  for (std::size_t i = 0; i < 4; ++i) {
    atms.push_back(std::make_unique<AtmAgent>(cluster.node(i),
                                              cluster.store(cluster.pid(i)),
                                              AtmAgent::Options{4, 1'000'000}));
  }
  Rng rng(seed * 5 + 2);
  ASSERT_TRUE(cluster.await_stable(5'000'000));
  atms[0]->open_account(1, 1'000'000'000);
  ASSERT_TRUE(cluster.await_quiesce(10'000'000));

  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 8; ++i) {
      const std::size_t who = rng.below(4);
      if (rng.chance(0.5)) {
        atms[who]->deposit(1, static_cast<std::int64_t>(rng.below(50)));
      } else {
        atms[who]->withdraw(1, static_cast<std::int64_t>(rng.below(50)));
      }
    }
    if (rng.chance(0.5)) {
      cluster.partition({{0, 1, 2}, {3}});
    } else {
      cluster.heal();
    }
    cluster.run_for(100'000);
  }
  cluster.heal();
  ASSERT_TRUE(cluster.await_quiesce(30'000'000));
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(atms[i]->balance(1), atms[0]->balance(1)) << "atm " << i;
    EXPECT_EQ(atms[i]->unposted_count(), 0u) << "atm " << i;
  }
  EXPECT_EQ(cluster.check_report(), "");
}

INSTANTIATE_TEST_SUITE_P(Seeds, AtmChurnTest, ::testing::Range<std::uint64_t>(1, 7));

// AtmChurnTest's schedule with ATM 3's ledger on a disk that dies after the
// first round (every later write fails cleanly). The failed write must
// fail-stop that ATM: no ATM may report a balance that its recovered
// incarnation cannot reload from its ledger.
TEST_P(AtmChurnTest, FailedLedgerWriteFailStopsTheAtm) {
  const std::uint64_t seed = GetParam();
  Cluster::Options opts;
  opts.num_processes = 4;
  opts.seed = seed;
  Cluster cluster(opts);
  // ATM 3 keeps its ledger on a disk of its own, so the fault hits the
  // ledger write and not the node's protocol persists.
  StableStore ledger3;
  bool disk_dead = false;
  ledger3.set_fault_hook([&disk_dead](std::size_t) {
    StableStore::WriteFault f;
    if (disk_dead) f.kind = StableStore::WriteFault::Kind::Fail;
    return f;
  });
  const auto ledger = [&](std::size_t i) -> StableStore& {
    return i == 3 ? ledger3 : cluster.store(cluster.pid(i));
  };
  std::vector<std::unique_ptr<AtmAgent>> atms;
  for (std::size_t i = 0; i < 4; ++i) {
    atms.push_back(std::make_unique<AtmAgent>(cluster.node(i), ledger(i),
                                              AtmAgent::Options{4, 1'000'000}));
  }
  Rng rng(seed * 5 + 2);
  ASSERT_TRUE(cluster.await_stable(5'000'000));
  atms[0]->open_account(1, 1'000'000'000);
  ASSERT_TRUE(cluster.await_quiesce(10'000'000));

  for (int round = 0; round < 5; ++round) {
    if (round == 1) disk_dead = true;
    for (int i = 0; i < 8; ++i) {
      const std::size_t who = rng.below(4);
      const bool deposit = rng.chance(0.5);
      const auto amount = static_cast<std::int64_t>(1 + rng.below(50));
      if (atms[who]->failed() || !cluster.node(who).running()) continue;
      if (deposit) {
        atms[who]->deposit(1, amount);
      } else {
        atms[who]->withdraw(1, amount);
      }
    }
    if (rng.chance(0.5)) {
      cluster.partition({{0, 1, 2}, {3}});
    } else {
      cluster.heal();
    }
    cluster.run_for(100'000);
  }
  cluster.heal();
  ASSERT_TRUE(cluster.await_quiesce(30'000'000));

  // ATM 3 applied at least the open-account transaction's successors after
  // its disk died, so its first failed write stopped it.
  EXPECT_TRUE(atms[3]->failed());
  EXPECT_FALSE(cluster.node(3u).running());
  EXPECT_EQ(cluster.node(3u).metrics().counter("evs.storage_fail_stops").value(), 1u);
  EXPECT_DEATH((void)atms[3]->balance(1), "balance of a fail-stopped ATM");
  // The survivors agree; with ATM 3 down no configuration is full, so
  // their partition-era transactions stay unposted.
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_FALSE(atms[i]->failed()) << "atm " << i;
    EXPECT_EQ(atms[i]->balance(1), atms[0]->balance(1)) << "atm " << i;
  }
  EXPECT_EQ(cluster.check_report(), "");

  // Every ATM still reporting a balance reloads exactly that balance after
  // a crash and recovery.
  for (std::size_t i = 0; i < 4; ++i) {
    if (atms[i]->failed()) continue;
    const std::int64_t reported = atms[i]->balance(1);
    ASSERT_TRUE(cluster.crash(cluster.pid(i)).ok());
    ASSERT_TRUE(cluster.recover(cluster.pid(i)).ok());
    atms[i] = std::make_unique<AtmAgent>(cluster.node(i), ledger(i),
                                         AtmAgent::Options{4, 1'000'000});
    EXPECT_EQ(atms[i]->balance(1), reported) << "atm " << i;
  }
}

}  // namespace
}  // namespace evs
