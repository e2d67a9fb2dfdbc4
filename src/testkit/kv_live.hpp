// KvLiveCluster: the sharded KV service over real loopback UDP — the live
// counterpart of testkit::KvCluster. One testkit::LiveCluster per shard
// (its own sockets, stores and trace), the same ShardRouter and
// apps::KvShardedNode agents the simulator uses — and ONE net::Executor
// shared across every shard, so shards x nodes transports run on
// min(cores, shards x nodes) worker threads instead of a thread apiece
// (the thread explosion that capped large-N live benches).
//
// Thread discipline: an EvsNode is only ever touched on the executor
// worker that drives its transport, so every agent operation that reaches
// a node (put/get — get reads the node's configuration for the in-primary
// check) is posted onto that worker via call() and awaited. Shard delivery
// callbacks run on their transports' workers; the agent's internal mutex
// keeps its stores coherent across workers.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/kv_sharded.hpp"
#include "shard/router.hpp"
#include "testkit/live_cluster.hpp"

namespace evs {

class KvLiveCluster {
 public:
  struct Options {
    std::size_t num_processes{3};
    /// Workers for the shared executor; 0 = min(cores, shards x processes).
    std::size_t num_workers{0};
    shard::ShardRouter::Options router{};
    EvsNode::Options node = live_node_defaults();
    UdpTransport::Options transport{};
    shard::TransferConfig transfer{};
  };

  explicit KvLiveCluster(Options options);
  KvLiveCluster() : KvLiveCluster(Options{}) {}
  ~KvLiveCluster();

  KvLiveCluster(const KvLiveCluster&) = delete;
  KvLiveCluster& operator=(const KvLiveCluster&) = delete;

  /// Open every shard cluster (Errc::transport_io = no usable sockets;
  /// callers GTEST_SKIP then). Attaches every replica agent on success.
  Status open();
  /// Stop every shard cluster's loops. Idempotent; inspection stays valid.
  void stop();

  std::size_t size() const { return agents_.size(); }
  std::size_t num_shards() const { return shards_.size(); }
  ProcessId pid(std::size_t index) const { return shards_[0]->pid(index); }

  const shard::ShardRouter& router() const { return router_; }
  apps::KvShardedNode& agent(std::size_t index) { return *agents_[index]; }
  LiveCluster& shard_cluster(shard::ShardId s) { return *shards_[s]; }

  /// Route the key and run the agent's write on the owning shard's loop
  /// thread for process `index`; synchronous.
  Status put(std::size_t index, std::string_view key, std::string_view value);
  /// Fire-and-forget write (benchmarks): posts the encoded op and returns.
  void put_async(std::size_t index, std::string_view key,
                 std::string_view value);
  /// In-primary read on the owning shard's loop thread; synchronous.
  Expected<std::optional<std::string>> get(std::size_t index,
                                           std::string_view key);

  // --- partition scripting (process indexes, per shard) ---
  void partition_shard(shard::ShardId s,
                       const std::vector<std::vector<std::size_t>>& groups);
  void heal_shard(shard::ShardId s);

  // --- waiting (wall-clock; all shards must satisfy the condition) ---
  bool await_stable(SimTime max_wait_us = 15'000'000);
  /// Quiesce every shard, then wait until every in-primary replica is
  /// serving (catch-up done). Serving checks read node state, so each one
  /// is posted to the owning shard's loop thread via call().
  bool await_quiesce(SimTime max_wait_us = 15'000'000);
  /// Every in-primary replica of every shard reports serving(); each check
  /// runs on the owning loop thread.
  bool all_serving();

  /// True when every pair of replicas of `shard` holds an identical map.
  /// Requires stop() (stores are loop-thread-written while running).
  bool replicas_agree(shard::ShardId shard) const {
    return divergence(shard).empty();
  }
  /// Empty when replicas agree; otherwise the first difference per
  /// divergent replica (see replica_divergence). Requires stop().
  std::string divergence(shard::ShardId shard) const;

  /// Per-shard spec-check reports, shard-prefixed. Requires stop().
  std::string check_report(bool quiescent = true) const;
  /// Every shard cluster's aggregate plus every agent's kv.* registry.
  /// Requires stop().
  obs::MetricsRegistry aggregate_metrics() const;

 private:
  Options options_;
  shard::ShardRouter router_;
  /// Declared before shards_: each shard's stop() references the shared
  /// executor, so it must outlive them in destruction order.
  std::unique_ptr<net::Executor> executor_;
  std::vector<std::unique_ptr<LiveCluster>> shards_;
  std::vector<std::unique_ptr<apps::KvShardedNode>> agents_;
};

}  // namespace evs
