#include "testkit/kv_live.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "testkit/kv_check.hpp"
#include "util/assert.hpp"

namespace evs {

KvLiveCluster::KvLiveCluster(Options options)
    : options_(options), router_(options.router) {
  EVS_ASSERT_MSG(options_.router.num_shards >= 1, "need at least one shard");
  shards_.reserve(options_.router.num_shards);
  for (shard::ShardId s = 0; s < options_.router.num_shards; ++s) {
    LiveCluster::Options lo;
    lo.num_processes = options_.num_processes;
    lo.node = options_.node;
    lo.transport = options_.transport;
    shards_.push_back(std::make_unique<LiveCluster>(lo));
  }
  std::vector<ProcessId> members;
  for (std::size_t i = 0; i < options_.num_processes; ++i) {
    members.push_back(shards_[0]->pid(i));
  }
  router_.update_members(members);
  agents_.reserve(options_.num_processes);
  for (std::size_t i = 0; i < options_.num_processes; ++i) {
    agents_.push_back(std::make_unique<apps::KvShardedNode>(
        pid(i), router_, options_.transfer));
  }
}

KvLiveCluster::~KvLiveCluster() { stop(); }

Status KvLiveCluster::open() {
  // One executor for every shard's transports: prepare each shard onto it,
  // start the workers once, then launch every shard's nodes.
  net::Executor::Options ex_options;
  ex_options.num_workers = options_.num_workers;
  executor_ = std::make_unique<net::Executor>(ex_options);
  for (auto& c : shards_) {
    Status st = c->prepare(*executor_);
    if (!st.ok()) {
      stop();
      return st;
    }
  }
  if (Status st = executor_->start(); !st.ok()) {
    stop();
    return st;
  }
  for (auto& c : shards_) c->launch();
  // Attach every replica on its driving worker: set_on_deliver_batch must
  // not race the delivery path.
  for (shard::ShardId s = 0; s < router_.num_shards(); ++s) {
    for (const ProcessId p : router_.replicas(s)) {
      const std::size_t index = p.value - 1;
      LiveCluster& c = *shards_[s];
      apps::KvShardedNode* agent = agents_[index].get();
      c.call(index, [agent, s, &c, index] {
        agent->attach_shard(s, c.node(index));
      });
    }
  }
  return Status::ok_status();
}

void KvLiveCluster::stop() {
  // Every shard shares the executor, so the first shard's stop() joins the
  // workers for all of them; the rest just flip their running flags.
  for (auto& c : shards_) c->stop();
  if (executor_ != nullptr) executor_->stop();
}

Status KvLiveCluster::put(std::size_t index, std::string_view key,
                          std::string_view value) {
  const shard::ShardId s = router_.shard_of_key(key);
  Status st;
  shards_[s]->call(index, [&] { st = agents_[index]->put(key, value); });
  return st;
}

void KvLiveCluster::put_async(std::size_t index, std::string_view key,
                              std::string_view value) {
  const shard::ShardId s = router_.shard_of_key(key);
  apps::KvShardedNode* agent = agents_[index].get();
  // Copy the strings into the posted closure; rejections are visible in the
  // agent's own counters, as with LiveCluster::send_async.
  (void)shards_[s]->transport(index).post(
      [agent, k = std::string(key), v = std::string(value)] {
        (void)agent->put(k, v);
      });
}

Expected<std::optional<std::string>> KvLiveCluster::get(std::size_t index,
                                                        std::string_view key) {
  const shard::ShardId s = router_.shard_of_key(key);
  Expected<std::optional<std::string>> out{
      Status::error(Errc::not_running, "loop did not run the read")};
  shards_[s]->call(index, [&] { out = agents_[index]->get(key); });
  return out;
}

void KvLiveCluster::partition_shard(
    shard::ShardId s, const std::vector<std::vector<std::size_t>>& groups) {
  shards_[s]->partition(groups);
}

void KvLiveCluster::heal_shard(shard::ShardId s) { shards_[s]->heal(); }

bool KvLiveCluster::await_stable(SimTime max_wait_us) {
  return std::all_of(shards_.begin(), shards_.end(), [&](const auto& c) {
    return c->await_stable(max_wait_us);
  });
}

bool KvLiveCluster::await_quiesce(SimTime max_wait_us) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::microseconds(max_wait_us);
  const bool quiet =
      std::all_of(shards_.begin(), shards_.end(), [&](const auto& c) {
        return c->await_quiesce(max_wait_us);
      });
  if (!quiet) return false;
  // Post-quiesce reads must not bounce off Errc::catching_up: wait until
  // every in-primary replica has finished state transfer too.
  while (!all_serving()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return true;
}

bool KvLiveCluster::all_serving() {
  for (shard::ShardId s = 0; s < router_.num_shards(); ++s) {
    for (const ProcessId p : router_.replicas(s)) {
      const std::size_t index = p.value - 1;
      apps::KvShardedNode* agent = agents_[index].get();
      bool ok = false;
      // in_primary/serving read the node's configuration — loop thread only.
      shards_[s]->call(index, [agent, s, &ok] {
        ok = !agent->in_primary(s) || agent->serving(s);
      });
      if (!ok) return false;
    }
  }
  return true;
}

std::string KvLiveCluster::divergence(shard::ShardId shard) const {
  return replica_divergence(router_, agents_, shard);
}

std::string KvLiveCluster::check_report(bool quiescent) const {
  return shard_check_report(shards_, quiescent);
}

obs::MetricsRegistry KvLiveCluster::aggregate_metrics() const {
  obs::MetricsRegistry out;
  for (const auto& c : shards_) out.merge_from(c->aggregate_metrics());
  for (const auto& a : agents_) out.merge_from(a->metrics());
  // The shards share one executor; its net.executor.* view merges once here
  // (shard clusters skip non-owned executors).
  if (executor_ != nullptr) out.merge_from(executor_->metrics());
  return out;
}

}  // namespace evs
