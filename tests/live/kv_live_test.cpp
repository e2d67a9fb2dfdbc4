// Sharded KV over real loopback UDP (testkit::KvLiveCluster): writes fan
// into per-shard rings over real sockets, every replica converges on the
// identical store, in-primary reads return acked values, and each shard's
// live trace passes the full specification checker. Wall-clock like the
// rest of the live label; skips without sockets.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "testkit/kv_live.hpp"

namespace evs {
namespace {

#define SKIP_IF_NO_SOCKETS(st)                                                 \
  do {                                                                         \
    if (!(st).ok()) GTEST_SKIP() << "sockets unavailable: " << (st).message(); \
  } while (0)

TEST(KvLiveTest, ShardedWritesConvergeOverRealSockets) {
  KvLiveCluster::Options opts;
  opts.num_processes = 3;
  opts.router.num_shards = 2;
  opts.router.replication = 3;
  KvLiveCluster kc(opts);
  SKIP_IF_NO_SOCKETS(kc.open());
  ASSERT_TRUE(kc.await_stable()) << "shard rings never formed over UDP";

  // Writes submitted at different processes, routed to whichever shard owns
  // the key; reads answered by the submitting replica once applied.
  std::map<std::string, std::string> expected;
  for (int i = 0; i < 12; ++i) {
    const std::string k = "live-key-" + std::to_string(i);
    const std::string v = "v" + std::to_string(i);
    ASSERT_TRUE(kc.put(i % kc.size(), k, v).ok()) << k;
    expected[k] = v;
  }
  ASSERT_TRUE(kc.await_quiesce()) << "shard rings never quiesced";

  for (std::size_t p = 0; p < kc.size(); ++p) {
    for (const auto& [k, v] : expected) {
      auto got = kc.get(p, k);
      ASSERT_TRUE(got.ok()) << "process " << p << " key " << k;
      ASSERT_TRUE(got->has_value()) << "process " << p << " key " << k;
      EXPECT_EQ(**got, v);
    }
  }

  kc.stop();
  for (shard::ShardId s = 0; s < kc.num_shards(); ++s) {
    EXPECT_TRUE(kc.replicas_agree(s)) << "shard " << s << ": " << kc.divergence(s);
  }
  EXPECT_EQ(kc.check_report(), "");

  const auto agg = kc.aggregate_metrics();
  EXPECT_EQ(agg.counter_value("kv.puts"), expected.size());
  EXPECT_EQ(agg.counter_value("kv.applied"), expected.size() * 3u);
  EXPECT_EQ(agg.counter_value("kv.rejected_decode"), 0u);
}

}  // namespace
}  // namespace evs
