#include "apps/kv_sharded.hpp"

#include <algorithm>

namespace evs::apps {

namespace {

/// Keep every stored entry transferable: a single-entry transfer chunk
/// carries ~50 bytes of headers around the entry, so cap writes a margin
/// below the ring's payload limit or a huge value could be committed into
/// a store no chunk can ever ship.
std::size_t write_size_cap(const EvsNode& node) {
  const std::size_t max = node.options().max_payload_bytes;
  return max > 512 ? max - 512 : max;
}

}  // namespace

KvShardedNode::Met::Met(obs::MetricsRegistry& r)
    : puts(r.counter("kv.puts")),
      gets(r.counter("kv.gets")),
      get_misses(r.counter("kv.get_misses")),
      applied(r.counter("kv.applied")),
      rejected_not_replica(r.counter("kv.rejected_not_replica")),
      rejected_backpressure(r.counter("kv.rejected_backpressure")),
      reads_blocked(r.counter("kv.reads_blocked")),
      writes_blocked(r.counter("kv.writes_blocked")),
      rejected_decode(r.counter("kv.rejected_decode")),
      local_shards(r.gauge("shard.local_shards")),
      put_batch_size(r.histogram("kv.put_batch_size")) {}

KvShardedNode::KvShardedNode(ProcessId self, const shard::ShardRouter& router,
                             shard::TransferConfig transfer)
    : self_(self),
      router_(router),
      transfer_cfg_(transfer),
      met_(metrics_),
      met_t_(metrics_) {}

shard::TransferEngine::Ctx KvShardedNode::ctx_locked(shard::ShardId shard,
                                                     LocalShard& ls) {
  return shard::TransferEngine::Ctx{
      ls.store, *ls.node, ls.node->scheduler().now(),
      std::span<const ProcessId>(router_.replicas(shard)), met_t_};
}

void KvShardedNode::attach_shard(shard::ShardId shard, EvsNode& node) {
  std::lock_guard<std::mutex> lock(mu_);
  LocalShard& ls = shards_[shard];
  ls.node = &node;
  if (ls.engine == nullptr) {
    ls.engine = std::make_unique<shard::TransferEngine>(self_, transfer_cfg_);
  }
  met_.local_shards.set(static_cast<std::int64_t>(shards_.size()));
  // Apply the shard's total order into the shard-local store. The node's
  // one delivery slot carries regular, and recovery-time (old regular and
  // transitional) deliveries alike, so writes that land during a
  // configuration change reach the state machine too. The payload views are
  // only valid for the callback, and KvStore copies what it keeps, so no
  // pinning is needed.
  node.set_on_deliver_batch(
      [this, shard](std::span<const EvsNode::DeliveryView> batch) {
        std::lock_guard<std::mutex> apply_lock(mu_);
        for (const auto& d : batch) apply_locked(shard, d.payload);
      });
  // The transfer engine observes regular configuration installs through the
  // node's one configuration slot, which the agent takes over just as it
  // takes over the delivery slot.
  node.set_on_config_change([this, shard](const Configuration& cfg) {
    if (cfg.id.transitional) return;
    std::lock_guard<std::mutex> cfg_lock(mu_);
    LocalShard* s = find(shard);
    if (s == nullptr || s->engine == nullptr || s->node == nullptr) return;
    s->engine->on_regular_config(cfg, ctx_locked(shard, *s));
  });
  // A re-attach (harness remap) lands on a node that already has a live
  // configuration the handler will never replay: sync the engine now.
  if (node.running() && !node.config().members.empty()) {
    ls.engine->on_regular_config(node.config(), ctx_locked(shard, ls));
  }
  arm_tick_locked(shard, ls);
}

void KvShardedNode::arm_tick_locked(shard::ShardId shard, LocalShard& ls) {
  if (ls.tick_armed || ls.node == nullptr) return;
  ls.tick_armed = true;
  std::weak_ptr<char> weak = alive_;
  ls.node->scheduler().schedule_after(
      transfer_cfg_.tick_interval_us, [this, shard, weak] {
        if (weak.expired()) return;
        std::lock_guard<std::mutex> lock(mu_);
        LocalShard* s = find(shard);
        if (s == nullptr) return;
        if (s->engine != nullptr && s->node != nullptr) {
          s->engine->tick(ctx_locked(shard, *s));
        }
        s->tick_armed = false;
        arm_tick_locked(shard, *s);
      });
}

void KvShardedNode::apply_locked(shard::ShardId shard,
                                 std::span<const std::uint8_t> payload) {
  LocalShard* ls = find(shard);
  if (ls == nullptr) return;
  // The transfer op range never reaches the store: it is agent-to-agent
  // traffic riding the same total order as the writes (that ordering is
  // what makes transfer anchoring exact — see shard/transfer.hpp).
  if (!payload.empty() && payload[0] >= shard::kTransferOpFirst) {
    if (ls->engine == nullptr ||
        !ls->engine->handle_payload(payload, ctx_locked(shard, *ls))) {
      met_.rejected_decode.inc();
    }
    return;
  }
  const auto d = ls->store.apply(payload);
  if (d.has_value()) {
    met_.applied.inc();
    if (ls->engine != nullptr) ls->engine->on_kv_applied(d->key);
  } else {
    met_.rejected_decode.inc();
  }
}

bool KvShardedNode::has_shard(shard::ShardId shard) const {
  std::lock_guard<std::mutex> lock(mu_);
  return shards_.find(shard) != shards_.end();
}

std::vector<shard::ShardId> KvShardedNode::local_shards() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<shard::ShardId> out;
  out.reserve(shards_.size());
  for (const auto& [id, ls] : shards_) out.push_back(id);
  return out;
}

Status KvShardedNode::put(std::string_view key, std::string_view value) {
  const shard::ShardId shard = router_.shard_of_key(key);
  std::vector<std::vector<std::uint8_t>> payloads;
  payloads.push_back(shard::encode_op(shard::KvOp::Put, key, value));
  return submit(shard, std::move(payloads));
}

Status KvShardedNode::del(std::string_view key) {
  const shard::ShardId shard = router_.shard_of_key(key);
  std::vector<std::vector<std::uint8_t>> payloads;
  payloads.push_back(shard::encode_op(shard::KvOp::Del, key, {}));
  return submit(shard, std::move(payloads));
}

KvShardedNode::PutBatchResult KvShardedNode::put_batch(
    const std::vector<std::pair<std::string, std::string>>& items) {
  // Group by shard so each shard ring sees one all-or-nothing send_batch.
  std::map<shard::ShardId, std::vector<std::vector<std::uint8_t>>> by_shard;
  for (const auto& [key, value] : items) {
    by_shard[router_.shard_of_key(key)].push_back(
        shard::encode_op(shard::KvOp::Put, key, value));
  }
  PutBatchResult result;
  result.shards.reserve(by_shard.size());
  for (auto& [shard, payloads] : by_shard) {
    ShardPutOutcome outcome;
    outcome.shard = shard;
    outcome.ops = payloads.size();
    outcome.status = submit(shard, std::move(payloads));
    result.shards.push_back(std::move(outcome));
  }
  return result;
}

Status KvShardedNode::submit(shard::ShardId shard,
                             std::vector<std::vector<std::uint8_t>> payloads) {
  EvsNode* node = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    LocalShard* ls = find(shard);
    if (ls == nullptr) {
      met_.rejected_not_replica.inc();
      return Status::error(Errc::invalid_argument,
                          "key's shard is not replicated on this process");
    }
    // Writes are primary-gated like reads: a minority component must not
    // order writes its re-merged peers never saw. Catching up does NOT gate
    // writes — a catching-up replica's writes enter the same total order as
    // anyone else's, and its own apply loop handles them identically.
    if (!in_primary_locked(shard, *ls)) {
      met_.writes_blocked.inc();
      return Status::error(Errc::blocked_not_primary,
                           "shard replica is not in the primary component");
    }
    const std::size_t cap = write_size_cap(*ls->node);
    for (const auto& p : payloads) {
      if (p.size() > cap) {
        return Status::error(
            Errc::payload_too_large,
            "write exceeds the transfer-safe payload cap for this ring");
      }
    }
    node = ls->node;
  }
  const auto count = payloads.size();
  // SAFE delivery: a write is applied only when every member of the shard
  // configuration has it — the strongest per-shard guarantee EVS offers,
  // and what makes any serving replica safe to read.
  auto sent = node->send_batch(Service::Safe, std::move(payloads));
  if (!sent.ok()) {
    if (sent.code() == Errc::backpressure) met_.rejected_backpressure.inc();
    return sent.status();
  }
  met_.puts.inc(count);
  met_.put_batch_size.record(count);
  return Status::ok_status();
}

Expected<std::optional<std::string>> KvShardedNode::get(std::string_view key) {
  const shard::ShardId shard = router_.shard_of_key(key);
  std::lock_guard<std::mutex> lock(mu_);
  LocalShard* ls = find(shard);
  if (ls == nullptr) {
    met_.rejected_not_replica.inc();
    return Status::error(Errc::invalid_argument,
                         "key's shard is not replicated on this process");
  }
  if (!in_primary_locked(shard, *ls)) {
    met_.reads_blocked.inc();
    return Status::error(Errc::blocked_not_primary,
                         "shard replica is not in the primary component");
  }
  if (ls->engine != nullptr && ls->engine->catching_up()) {
    met_t_.reads_catching_up.inc();
    return Status::error(Errc::catching_up,
                         "replica is catching up after re-merge; retry, read "
                         "another replica, or use get_stale()");
  }
  met_.gets.inc();
  auto value = ls->store.get(key);
  if (!value.has_value()) met_.get_misses.inc();
  return Expected<std::optional<std::string>>(std::move(value));
}

Expected<std::optional<std::string>> KvShardedNode::get_stale(
    std::string_view key) {
  const shard::ShardId shard = router_.shard_of_key(key);
  std::lock_guard<std::mutex> lock(mu_);
  const LocalShard* ls = find(shard);
  if (ls == nullptr) {
    met_.rejected_not_replica.inc();
    return Status::error(Errc::invalid_argument,
                         "key's shard is not replicated on this process");
  }
  met_t_.stale_reads.inc();
  return Expected<std::optional<std::string>>(ls->store.get(key));
}

bool KvShardedNode::in_primary(shard::ShardId shard) const {
  std::lock_guard<std::mutex> lock(mu_);
  const LocalShard* ls = find(shard);
  return ls != nullptr && in_primary_locked(shard, *ls);
}

bool KvShardedNode::catching_up(shard::ShardId shard) const {
  std::lock_guard<std::mutex> lock(mu_);
  const LocalShard* ls = find(shard);
  return ls != nullptr && ls->engine != nullptr && ls->engine->catching_up();
}

bool KvShardedNode::serving(shard::ShardId shard) const {
  std::lock_guard<std::mutex> lock(mu_);
  const LocalShard* ls = find(shard);
  if (ls == nullptr || !in_primary_locked(shard, *ls)) return false;
  return ls->engine == nullptr || !ls->engine->catching_up();
}

void KvShardedNode::on_process_crash() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [id, ls] : shards_) {
    ls.store.clear();
    if (ls.engine != nullptr) ls.engine->reset_for_crash();
  }
}

bool KvShardedNode::in_primary_locked(shard::ShardId shard,
                                      const LocalShard& ls) const {
  // In-primary: the replica's CURRENT shard configuration holds a majority
  // of the shard's ASSIGNED replica group, so no disjoint configuration can
  // simultaneously hold one — at most one primary per shard at a time.
  const auto& assigned = router_.replicas(shard);
  if (assigned.empty() || ls.node == nullptr || !ls.node->running()) {
    return false;
  }
  const Configuration& cfg = ls.node->config();
  std::size_t present = 0;
  for (const ProcessId p : assigned) {
    if (cfg.contains(p)) ++present;
  }
  return present * 2 > assigned.size();
}

KvShardedNode::Stats KvShardedNode::stats() const {
  Stats s;
  s.puts = met_.puts.value();
  s.gets = met_.gets.value();
  s.get_misses = met_.get_misses.value();
  s.applied = met_.applied.value();
  s.rejected_not_replica = met_.rejected_not_replica.value();
  s.rejected_backpressure = met_.rejected_backpressure.value();
  s.reads_blocked = met_.reads_blocked.value();
  s.writes_blocked = met_.writes_blocked.value();
  s.reads_catching_up = met_t_.reads_catching_up.value();
  s.stale_reads = met_t_.stale_reads.value();
  return s;
}

const shard::KvStore* KvShardedNode::store(shard::ShardId shard) const {
  std::lock_guard<std::mutex> lock(mu_);
  const LocalShard* ls = find(shard);
  return ls == nullptr ? nullptr : &ls->store;
}

void KvShardedNode::corrupt_for_test(shard::ShardId shard,
                                     std::string_view key,
                                     std::optional<std::string_view> value) {
  std::lock_guard<std::mutex> lock(mu_);
  LocalShard* ls = find(shard);
  if (ls == nullptr) return;
  if (value.has_value()) {
    ls->store.upsert(key, *value);
  } else {
    ls->store.erase_key(key);
  }
}

KvShardedNode::LocalShard* KvShardedNode::find(shard::ShardId shard) {
  const auto it = shards_.find(shard);
  return it == shards_.end() ? nullptr : &it->second;
}

const KvShardedNode::LocalShard* KvShardedNode::find(
    shard::ShardId shard) const {
  const auto it = shards_.find(shard);
  return it == shards_.end() ? nullptr : &it->second;
}

}  // namespace evs::apps
