// State-transfer and anti-entropy integration over the sim harness: a
// re-merged minority replica catches up a four-digit write backlog and
// re-opens its read gate; transfers survive donor crash, re-partition,
// re-sealed chunk corruption and flapping links with bounded retries; a
// full-group app restart elects the most-caught-up replica via ServeClaim
// instead of losing data; and background anti-entropy detects and repairs
// silently injected divergence. Every run must stay spec-clean — transfer
// traffic rides the shard ring as ordinary SAFE messages and may not
// perturb the EVS guarantees it is built on.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "sim/faults.hpp"
#include "testkit/kv_cluster.hpp"

namespace evs {
namespace {

using shard::ShardId;

KvCluster::Options base_opts(std::size_t processes, std::uint32_t shards = 1,
                             std::uint32_t replication = 3) {
  KvCluster::Options o;
  o.num_processes = processes;
  o.router.num_shards = shards;
  o.router.replication = replication;
  o.watchdog_window_us = 2'000'000;
  return o;
}

/// Process index (0-based) of the nth replica of `shard`.
std::size_t replica_index(const shard::ShardRouter& router, ShardId shard,
                          std::size_t nth = 0) {
  return router.replicas(shard).at(nth).value - 1;
}

/// All process indexes except `out`.
std::vector<std::size_t> everyone_but(const KvCluster& kc, std::size_t out) {
  std::vector<std::size_t> rest;
  for (std::size_t i = 0; i < kc.size(); ++i) {
    if (i != out) rest.push_back(i);
  }
  return rest;
}

/// Write `count` keys through whichever replica currently accepts writes,
/// pacing the ring so max_pending_sends backpressure stays transient.
void write_backlog(KvCluster& kc, ShardId shard, const std::string& prefix,
                   int count, std::map<std::string, std::string>& expected) {
  for (int i = 0; i < count; ++i) {
    const std::string k = prefix + std::to_string(i);
    const std::string v = "v-" + k;
    apps::KvShardedNode* w = kc.writer(shard);
    ASSERT_NE(w, nullptr) << "no writer at op " << i;
    Status st = w->put(k, v);
    for (int spin = 0; st.code() == Errc::backpressure && spin < 200; ++spin) {
      kc.run_for(10'000);
      w = kc.writer(shard);
      ASSERT_NE(w, nullptr);
      st = w->put(k, v);
    }
    ASSERT_TRUE(st.ok()) << "op " << i << ": " << st.message();
    expected[k] = v;
    if (i % 50 == 49) kc.run_for(20'000);
  }
}

/// Every expected key readable at every current replica of `shard`.
void expect_all_values(KvCluster& kc, ShardId shard,
                       const std::map<std::string, std::string>& expected) {
  for (const ProcessId p : kc.router().replicas(shard)) {
    apps::KvShardedNode& a = kc.agent(p);
    for (const auto& [k, v] : expected) {
      auto got = a.get(k);
      ASSERT_TRUE(got.ok()) << "pid " << p.value << " key " << k << ": "
                            << got.status().message();
      ASSERT_TRUE(got->has_value()) << "pid " << p.value << " key " << k;
      EXPECT_EQ(**got, v) << "pid " << p.value << " key " << k;
    }
  }
}

// The acceptance scenario: a minority replica misses >= 1k committed writes
// across a partition, then catches up through chunked state transfer — and
// while it reconciles, its read gate refuses with catching_up while
// get_stale still serves.
TEST(KvTransferSimTest, CatchUp1kWritesAfterRemerge) {
  KvCluster kc(base_opts(4));
  ASSERT_TRUE(kc.await_quiesce());

  const ShardId s = 0;
  std::map<std::string, std::string> expected;
  // A pre-partition key the lone replica can serve stale reads from.
  write_backlog(kc, s, "pre-", 1, expected);
  ASSERT_TRUE(kc.await_quiesce());

  const std::size_t lone = replica_index(kc.router(), s, 2);
  kc.partition_shard(s, {{lone}, everyone_but(kc, lone)});
  ASSERT_TRUE(kc.await([&] { return kc.shard_cluster(s).stable(); },
                       4'000'000));

  write_backlog(kc, s, "miss-", 1000, expected);
  ASSERT_GE(expected.size(), 1001u);

  kc.heal_shard(s);
  // The moment the merged configuration lands, the rejoiner is in primary
  // but has not reconciled yet: gets bounce with catching_up, get_stale
  // serves the pre-partition value regardless.
  ASSERT_TRUE(kc.await([&] { return kc.agent(lone).in_primary(s); },
                       4'000'000, /*step_us=*/100));
  ASSERT_TRUE(kc.agent(lone).catching_up(s));
  EXPECT_EQ(kc.agent(lone).get("pre-0").code(), Errc::catching_up);
  auto stale = kc.agent(lone).get_stale("pre-0");
  ASSERT_TRUE(stale.ok());
  ASSERT_TRUE(stale->has_value());
  EXPECT_EQ(**stale, "v-pre-0");

  ASSERT_TRUE(kc.await_quiesce(12'000'000));
  EXPECT_TRUE(kc.agent(lone).serving(s));
  expect_all_values(kc, s, expected);
  EXPECT_TRUE(kc.replicas_agree(s)) << kc.divergence(s);

  const auto agg = kc.aggregate_metrics();
  EXPECT_GE(agg.counter_value("kv.transfer.sessions"), 1u);
  EXPECT_GE(agg.counter_value("kv.transfer.completed"), 1u);
  EXPECT_GT(agg.counter_value("kv.transfer.bytes_sent"), 0u);
  EXPECT_GE(agg.counter_value("kv.reads_catching_up"), 1u);
  EXPECT_GE(agg.counter_value("kv.stale_reads"), 1u);
  EXPECT_EQ(kc.check_report(), "");
}

// Crash the donor (lowest-id serving replica) while the rejoiner is still
// reconciling: the attempt aborts, the joiner retries against the post-
// remap group, and every surviving replica still converges.
TEST(KvTransferSimTest, DonorCrashMidTransferRecovers) {
  KvCluster kc(base_opts(4));
  ASSERT_TRUE(kc.await_quiesce());

  const ShardId s = 0;
  const std::size_t lone = replica_index(kc.router(), s, 2);
  std::map<std::string, std::string> expected;
  kc.partition_shard(s, {{lone}, everyone_but(kc, lone)});
  ASSERT_TRUE(kc.await([&] { return kc.shard_cluster(s).stable(); },
                       4'000'000));
  write_backlog(kc, s, "w-", 400, expected);

  // The donor-to-be: the lowest-id replica that stayed in the majority.
  ProcessId donor{0};
  for (const ProcessId p : kc.router().replicas(s)) {
    if (p.value - 1 == lone) continue;
    if (donor.value == 0 || p.value < donor.value) donor = p;
  }

  kc.heal_shard(s);
  ASSERT_TRUE(kc.await([&] { return kc.agent(lone).in_primary(s); },
                       4'000'000, /*step_us=*/100));
  // Strike while the rejoiner is still mid-catch-up.
  ASSERT_TRUE(kc.agent(lone).catching_up(s));
  ASSERT_TRUE(kc.crash(donor).ok());
  ASSERT_TRUE(kc.await_quiesce(12'000'000));
  EXPECT_TRUE(kc.replicas_agree(s)) << kc.divergence(s);
  expect_all_values(kc, s, expected);

  ASSERT_TRUE(kc.recover(donor).ok());
  ASSERT_TRUE(kc.await_quiesce(12'000'000));
  EXPECT_TRUE(kc.replicas_agree(s)) << kc.divergence(s);
  expect_all_values(kc, s, expected);
  EXPECT_EQ(kc.check_report(), "");
}

// Re-partition while a transfer is in flight: the joiner's attempt dies
// with the configuration, and the second heal completes the catch-up.
TEST(KvTransferSimTest, RepartitionMidTransferRestartsCleanly) {
  KvCluster kc(base_opts(4));
  ASSERT_TRUE(kc.await_quiesce());

  const ShardId s = 0;
  const std::size_t lone = replica_index(kc.router(), s, 2);
  std::map<std::string, std::string> expected;
  kc.partition_shard(s, {{lone}, everyone_but(kc, lone)});
  ASSERT_TRUE(kc.await([&] { return kc.shard_cluster(s).stable(); },
                       4'000'000));
  write_backlog(kc, s, "w-", 600, expected);

  kc.heal_shard(s);
  ASSERT_TRUE(kc.await([&] { return kc.agent(lone).in_primary(s); },
                       4'000'000, /*step_us=*/100));
  ASSERT_TRUE(kc.agent(lone).catching_up(s));
  // Yank the link again before the stream can finish, then heal for good.
  kc.partition_shard(s, {{lone}, everyone_but(kc, lone)});
  kc.run_for(1'000'000);
  kc.heal_shard(s);

  ASSERT_TRUE(kc.await_quiesce(12'000'000));
  EXPECT_TRUE(kc.agent(lone).serving(s));
  expect_all_values(kc, s, expected);
  EXPECT_TRUE(kc.replicas_agree(s)) << kc.divergence(s);
  EXPECT_EQ(kc.check_report(), "");
}

// Re-sealed corruption: byte flips in application payload with the frame
// CRC recomputed, so the wire layer accepts the bytes. Only the chunk's
// own CRC trailer can catch the damage; the transfer must reject the torn
// chunks, retry with backoff, and converge once the fault window closes.
TEST(KvTransferSimTest, CorruptSealedChunksAreRejectedAndRetried) {
  KvCluster kc(base_opts(4));
  ASSERT_TRUE(kc.await_quiesce());

  const ShardId s = 0;
  const std::size_t lone = replica_index(kc.router(), s, 2);
  std::map<std::string, std::string> expected;
  kc.partition_shard(s, {{lone}, everyone_but(kc, lone)});
  ASSERT_TRUE(kc.await([&] { return kc.shard_cluster(s).stable(); },
                       4'000'000));
  write_backlog(kc, s, "w-", 1200, expected);

  // Every data datagram reaching the joiner gets a payload-tail flip under
  // a fresh seal for the two seconds spanning the re-merge and first
  // transfer attempts (with only half of them torn, whether any chunk is
  // hit depends on how the ring's timing packs the datagrams). Aimed at
  // the joiner: a torn copy at a serving replica has no catch-up attempt
  // to retry.
  const SimTime from = kc.now();
  FaultRule rule;
  rule.dst = kc.pid(lone);
  rule.data_only = true;
  rule.corrupt_sealed = 1.0;
  rule.from_us = from;
  rule.until_us = from + 2'000'000;
  kc.shard_cluster(s).inject_faults(FaultPlan{}.add(rule));
  kc.heal_shard(s);
  kc.run_for(2'100'000);
  kc.shard_cluster(s).clear_faults();

  ASSERT_TRUE(kc.await_quiesce(20'000'000));
  EXPECT_TRUE(kc.agent(lone).serving(s));
  expect_all_values(kc, s, expected);
  EXPECT_TRUE(kc.replicas_agree(s)) << kc.divergence(s);

  const auto agg = kc.aggregate_metrics();
  // The fault fired and at least one torn chunk was caught by the trailer.
  EXPECT_GE(kc.shard_cluster(s).fault_stats().sealed_corrupted, 1u);
  EXPECT_GE(agg.counter_value("kv.transfer.chunk_crc_rejects"), 1u);
  EXPECT_GE(agg.counter_value("kv.transfer.retries"), 1u);
  EXPECT_EQ(kc.check_report(), "");
}

// Link flaps: partition/heal several times in quick succession, writing
// through every majority window. Retries are bounded by backoff, nothing
// wedges, and the final heal converges every replica.
TEST(KvTransferSimTest, FlappingLinksEventuallyConverge) {
  KvCluster kc(base_opts(4));
  ASSERT_TRUE(kc.await_quiesce());

  const ShardId s = 0;
  const std::size_t lone = replica_index(kc.router(), s, 2);
  std::map<std::string, std::string> expected;
  for (int cycle = 0; cycle < 4; ++cycle) {
    kc.partition_shard(s, {{lone}, everyone_but(kc, lone)});
    ASSERT_TRUE(kc.await([&] { return kc.shard_cluster(s).stable(); },
                         4'000'000));
    write_backlog(kc, s, "c" + std::to_string(cycle) + "-", 60, expected);
    kc.heal_shard(s);
    // Not long enough to finish a catch-up before the next flap.
    kc.run_for(120'000);
  }

  ASSERT_TRUE(kc.await_quiesce(20'000'000));
  EXPECT_TRUE(kc.agent(lone).serving(s));
  expect_all_values(kc, s, expected);
  EXPECT_TRUE(kc.replicas_agree(s)) << kc.divergence(s);
  EXPECT_EQ(kc.check_report(), "");
}

// Full-group app restart: every replica leaves primary, two of three lose
// their volatile stores, and on re-merge nobody is serving — the clearing
// rules cannot fire. The replica with the highest applied count must win
// the ServeClaim election so the surviving data seeds everyone else,
// rather than the group resurrecting empty.
TEST(KvTransferSimTest, ServeClaimElectsMostCaughtUpReplica) {
  KvCluster kc(base_opts(3));
  ASSERT_TRUE(kc.await_quiesce());

  const ShardId s = 0;
  std::map<std::string, std::string> expected;
  write_backlog(kc, s, "w-", 50, expected);
  ASSERT_TRUE(kc.await_quiesce());

  // Isolate everyone (no majority anywhere, so the harness does not remap),
  // then restart the application process on two of the three replicas —
  // their stores wipe, while process 1 keeps all 50 writes.
  kc.partition_shard(s, {{0}, {1}, {2}});
  ASSERT_TRUE(kc.await([&] { return kc.shard_cluster(s).stable(); },
                       4'000'000));
  kc.agent(std::size_t{1}).on_process_crash();
  kc.agent(std::size_t{2}).on_process_crash();

  kc.heal_shard(s);
  ASSERT_TRUE(kc.await_quiesce(12'000'000));
  EXPECT_TRUE(kc.all_serving());
  expect_all_values(kc, s, expected);
  EXPECT_TRUE(kc.replicas_agree(s)) << kc.divergence(s);

  const auto agg = kc.aggregate_metrics();
  EXPECT_GE(agg.counter_value("kv.transfer.claims"), 1u);
  EXPECT_EQ(kc.check_report(), "");
}

// Background anti-entropy: silently corrupt one serving replica's store —
// a change one no message ever carried, which digest exchange at config
// changes can never see — and the periodic digest announce must detect
// the divergence and repair exactly that replica back to agreement.
TEST(KvTransferSimTest, AntiEntropyRepairsInjectedDivergence) {
  KvCluster kc(base_opts(3));
  ASSERT_TRUE(kc.await_quiesce());

  const ShardId s = 0;
  std::map<std::string, std::string> expected;
  write_backlog(kc, s, "w-", 40, expected);
  ASSERT_TRUE(kc.await_quiesce());
  ASSERT_TRUE(kc.replicas_agree(s)) << kc.divergence(s);

  // Corrupt the HIGHEST-id replica: the announce authority is the lowest-id
  // serving replica, and repairs flow authority -> divergent. (Corrupting
  // the authority would "repair" everyone TO the corruption — that is the
  // documented trust model, not a detection gap.)
  ProcessId victim{0};
  for (const ProcessId p : kc.router().replicas(s)) {
    victim = std::max(victim, p, [](ProcessId a, ProcessId b) {
      return a.value < b.value;
    });
  }
  kc.agent(victim).corrupt_for_test(s, "w-7", "bit-rotted");
  kc.agent(victim).corrupt_for_test(s, "w-23", std::nullopt);
  ASSERT_FALSE(kc.replicas_agree(s));
  ASSERT_NE(kc.divergence(s), "");

  ASSERT_TRUE(kc.await(
      [&] {
        return kc.replicas_agree(s) &&
               kc.aggregate_metrics().counter_value("kv.antientropy_repairs") >=
                   1u;
      },
      8'000'000, /*step_us=*/10'000))
      << kc.divergence(s);
  expect_all_values(kc, s, expected);

  const auto agg = kc.aggregate_metrics();
  EXPECT_GE(agg.counter_value("kv.antientropy_rounds"), 1u);
  EXPECT_GE(agg.counter_value("kv.antientropy_repairs"), 1u);
  EXPECT_EQ(kc.check_report(), "");
}

}  // namespace
}  // namespace evs
