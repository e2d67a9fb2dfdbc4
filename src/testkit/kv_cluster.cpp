#include "testkit/kv_cluster.hpp"

#include <algorithm>

#include "testkit/kv_check.hpp"
#include "util/assert.hpp"

namespace evs {

KvCluster::KvCluster(Options options)
    : options_(options), router_(options.router) {
  EVS_ASSERT_MSG(options_.router.num_shards >= 1, "need at least one shard");
  shards_.reserve(options_.router.num_shards);
  for (shard::ShardId s = 0; s < options_.router.num_shards; ++s) {
    Cluster::Options co;
    co.num_processes = options_.num_processes;
    // Distinct seed per shard: independent groups should not see identical
    // network jitter, or "parallel" rings march in artificial unison.
    co.seed = options_.seed + s * 1000003ull;
    co.net = options_.net;
    co.node = options_.node;
    co.watchdog_window_us = options_.watchdog_window_us;
    shards_.push_back(std::make_unique<Cluster>(co));
  }
  agents_.reserve(options_.num_processes);
  alive_ = shards_[0]->pids();
  router_.update_members(alive_);
  for (std::size_t i = 0; i < options_.num_processes; ++i) {
    agents_.push_back(std::make_unique<apps::KvShardedNode>(
        pid(i), router_, options_.transfer));
  }
  remap(alive_);
}

apps::KvShardedNode* KvCluster::writer(shard::ShardId shard) {
  for (const ProcessId p : router_.replicas(shard)) {
    apps::KvShardedNode& a = agent(p);
    if (a.has_shard(shard) && a.in_primary(shard)) return &a;
  }
  return nullptr;
}

void KvCluster::run_for(SimTime us) {
  for (auto& c : shards_) c->run_for(us);
}

bool KvCluster::await(const std::function<bool()>& predicate,
                      SimTime max_wait_us, SimTime step_us) {
  const SimTime deadline = now() + max_wait_us;
  while (!predicate()) {
    if (now() >= deadline) return false;
    run_for(std::min(step_us, deadline - now()));
  }
  return true;
}

bool KvCluster::await_stable(SimTime max_wait_us) {
  return await(
      [this] {
        return std::all_of(shards_.begin(), shards_.end(),
                           [](const auto& c) { return c->stable(); });
      },
      max_wait_us);
}

bool KvCluster::await_quiesce(SimTime max_wait_us) {
  if (!await_stable(max_wait_us)) return false;
  auto totals = [this] {
    std::uint64_t delivered = 0;
    std::uint64_t pending = 0;
    for (const auto& c : shards_) {
      for (std::size_t i = 0; i < c->size(); ++i) {
        const EvsNode* n = c->node_ptr(i);
        if (n == nullptr) continue;
        delivered += n->stats().delivered;
        pending += n->pending_sends();
      }
    }
    return std::pair{delivered, pending};
  };
  const SimTime deadline = now() + max_wait_us;
  while (now() < deadline) {
    const auto before = totals();
    run_for(2'000);
    const auto after = totals();
    if (after == before && after.second == 0 && all_serving()) return true;
  }
  return false;
}

bool KvCluster::all_serving() const {
  for (shard::ShardId s = 0; s < router_.num_shards(); ++s) {
    const Cluster& c = *shards_[s];
    for (const ProcessId p : router_.replicas(s)) {
      if (c.node_ptr(p.value - 1) == nullptr) continue;  // crashed
      const apps::KvShardedNode& a = *agents_[p.value - 1];
      if (!a.has_shard(s)) continue;
      if (a.in_primary(s) && !a.serving(s)) return false;
    }
  }
  return true;
}

bool KvCluster::await_serving(SimTime max_wait_us) {
  return await([this] { return all_serving(); }, max_wait_us);
}

void KvCluster::partition_shard(
    shard::ShardId s, const std::vector<std::vector<std::size_t>>& groups) {
  shards_[s]->partition(groups);
}

void KvCluster::heal_shard(shard::ShardId s) { shards_[s]->heal(); }

void KvCluster::partition_all(
    const std::vector<std::vector<std::size_t>>& groups) {
  for (auto& c : shards_) c->partition(groups);
}

void KvCluster::heal_all() {
  for (auto& c : shards_) c->heal();
}

Status KvCluster::crash(ProcessId p) {
  for (auto& c : shards_) {
    Status st = c->crash(p);
    if (!st.ok()) return st;
  }
  // The EvsNode objects persist across crash/recover, so the agent cannot
  // detect the restart itself: wipe its volatile state (stores, transfer
  // engines) here, the way a real process loses memory.
  agent(p).on_process_crash();
  std::vector<ProcessId> alive;
  for (const ProcessId q : alive_) {
    if (!(q == p)) alive.push_back(q);
  }
  remap(alive);
  return Status::ok_status();
}

Status KvCluster::recover(ProcessId p) {
  for (auto& c : shards_) {
    Status st = c->recover(p);
    if (!st.ok()) return st;
  }
  std::vector<ProcessId> alive = alive_;
  alive.push_back(p);
  std::sort(alive.begin(), alive.end(),
            [](ProcessId a, ProcessId b) { return a.value < b.value; });
  remap(alive);
  return Status::ok_status();
}

bool KvCluster::remap(const std::vector<ProcessId>& alive) {
  alive_ = alive;
  const bool changed = router_.update_members(alive_);
  // (Re)attach every replica to its shards — also re-installs delivery
  // handlers on nodes that were rebuilt by recover(). Every process calls
  // update_members with the same member list, so every process derives the
  // same groups (asserted by the determinism tests).
  for (shard::ShardId s = 0; s < router_.num_shards(); ++s) {
    for (const ProcessId p : router_.replicas(s)) {
      Cluster& c = *shards_[s];
      const std::size_t index = p.value - 1;
      if (c.node_ptr(index) == nullptr) continue;
      agent(p).attach_shard(s, c.node(index));
    }
  }
  return changed;
}

std::string KvCluster::check_report(bool quiescent) const {
  return shard_check_report(shards_, quiescent);
}

std::string KvCluster::divergence(shard::ShardId shard) const {
  return replica_divergence(router_, agents_, shard);
}

obs::MetricsRegistry KvCluster::aggregate_metrics() const {
  obs::MetricsRegistry out;
  for (const auto& c : shards_) out.merge_from(c->aggregate_metrics());
  for (const auto& a : agents_) out.merge_from(a->metrics());
  return out;
}

}  // namespace evs
