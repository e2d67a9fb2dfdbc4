// KvCluster: the simulated harness for the sharded KV service. S shards,
// each an independent EVS group — its own testkit::Cluster, with its own
// Scheduler, Network, stores and trace — advanced in lockstep time slices
// so the shard clocks stay equal and cross-shard throughput comparisons
// are meaningful.
//
// All N processes are members of every shard ring (the shard group tracks
// global membership); the ShardRouter designates which R of them replicate
// each shard's store. Only replicas attach the shard to their agent:
// writes for a shard must be submitted at one of its replicas, reads are
// served by in-primary replicas, and the other ring members just carry the
// token. A membership change re-derives every replica group from the
// surviving members (remap()).
//
// Note: attaching a shard takes over both of that node's slots, delivery
// and configuration, so the underlying Cluster::Sink stops recording
// deliveries and configurations for replica nodes. Spec checking
// (check_report) reads the TraceLog and is unaffected; assert on KvStore
// contents / agent stats instead of sinks.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "apps/kv_sharded.hpp"
#include "shard/router.hpp"
#include "testkit/cluster.hpp"

namespace evs {

class KvCluster {
 public:
  struct Options {
    std::size_t num_processes{4};
    shard::ShardRouter::Options router{};
    Network::Options net{};
    EvsNode::Options node{};
    shard::TransferConfig transfer{};
    std::uint64_t seed{1};
    SimTime watchdog_window_us{0};
  };

  explicit KvCluster(Options options);
  KvCluster() : KvCluster(Options{}) {}

  std::size_t size() const { return agents_.size(); }
  std::size_t num_shards() const { return shards_.size(); }
  ProcessId pid(std::size_t index) const { return shards_[0]->pid(index); }

  const shard::ShardRouter& router() const { return router_; }
  apps::KvShardedNode& agent(std::size_t index) { return *agents_[index]; }
  apps::KvShardedNode& agent(ProcessId p) { return agent(p.value - 1); }

  /// The shard's underlying simulated cluster (its ring, network, trace).
  Cluster& shard_cluster(shard::ShardId s) { return *shards_[s]; }
  const Cluster& shard_cluster(shard::ShardId s) const { return *shards_[s]; }

  /// A replica of `shard` whose agent accepts writes for it right now, or
  /// nullptr when no replica is in primary (e.g. mid-partition).
  apps::KvShardedNode* writer(shard::ShardId shard);

  // --- time: every shard cluster advances by the same slice ---
  void run_for(SimTime us);
  SimTime now() const { return shards_[0]->now(); }

  /// Run until `predicate()` holds, advancing all shards in `step_us`
  /// slices; false if `max_wait_us` elapses first.
  bool await(const std::function<bool()>& predicate, SimTime max_wait_us,
             SimTime step_us = 500);
  /// Every shard cluster stable (see Cluster::stable).
  bool await_stable(SimTime max_wait_us = 2'000'000);
  /// Every shard stable, then run until deliveries and send queues settle
  /// on every shard AND every in-primary replica is serving (catch-up
  /// done) — post-quiesce reads must not bounce off Errc::catching_up.
  bool await_quiesce(SimTime max_wait_us = 4'000'000);
  /// Every alive in-primary replica of every shard reports serving().
  bool all_serving() const;
  /// Run until all_serving(); false if `max_wait_us` elapses first.
  bool await_serving(SimTime max_wait_us = 4'000'000);

  // --- scripting (indexes are process indexes, same in every shard) ---
  /// Partition ONE shard's network; the other shards are untouched — the
  /// isolation the sharded design exists to provide.
  void partition_shard(shard::ShardId s,
                       const std::vector<std::vector<std::size_t>>& groups);
  void heal_shard(shard::ShardId s);
  /// Partition every shard's network the same way (a real switch failure
  /// hits all groups at once).
  void partition_all(const std::vector<std::vector<std::size_t>>& groups);
  void heal_all();

  /// Crash / recover the process in EVERY shard ring, then re-derive the
  /// replica groups from the surviving membership and re-attach agents.
  Status crash(ProcessId p);
  Status recover(ProcessId p);

  /// Re-derive replica groups from `alive` and (re)attach each agent to the
  /// shards it now replicates. Returns true if any group changed.
  bool remap(const std::vector<ProcessId>& alive);

  // --- checking ---
  /// Concatenated per-shard spec-check reports, each line prefixed with the
  /// shard id; empty when every shard's trace is conformant.
  std::string check_report(bool quiescent = true) const;

  /// True when every pair of replicas of `shard` holds an identical map.
  bool replicas_agree(shard::ShardId shard) const {
    return divergence(shard).empty();
  }
  /// Empty when replicas agree; otherwise the first difference per
  /// divergent replica (see replica_divergence in testkit/kv_check.hpp).
  std::string divergence(shard::ShardId shard) const;

  /// Every shard cluster's aggregate, plus every agent's kv.* registry,
  /// merged into one registry.
  obs::MetricsRegistry aggregate_metrics() const;

 private:
  Options options_;
  shard::ShardRouter router_;
  std::vector<std::unique_ptr<Cluster>> shards_;
  std::vector<std::unique_ptr<apps::KvShardedNode>> agents_;
  std::vector<ProcessId> alive_;
};

}  // namespace evs
