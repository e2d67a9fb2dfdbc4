// Sharded KV service node: the per-process agent of the multi-ring KV
// store. One EvsNode per LOCALLY REPLICATED shard (each shard is an
// independent EVS group with its own total order); a consistent-hash
// ShardRouter maps keys -> shard and shard -> replica group.
//
// Write path: put/del ops are encoded and submitted to the owning shard's
// ring with SAFE delivery via send_batch — a write is applied only once
// every member of the shard's configuration has it, and all replicas apply
// the identical per-shard sequence (per-key linearizability follows: a
// key lives in exactly one shard, and that shard's order is total).
//
// Read path: served locally by any SERVING replica — in primary (the
// replica's current shard configuration contains a majority of the shard's
// assigned replica group) AND caught up (not mid state transfer). A
// minority replica refuses with Errc::blocked_not_primary; a re-merged
// replica still reconciling refuses with Errc::catching_up. get_stale()
// opts out of the second gate for callers that prefer availability.
//
// Catch-up itself — digests, chunked delta transfer, anti-entropy repair —
// is the per-shard shard::TransferEngine's job; this agent wires it to the
// ring (routes the transfer op range to it before the store ever decodes
// anything) and drives its timer.
//
// Cross-shard semantics: none, by design. Shards compose because they
// never share ordering state — a partition that stalls shard A's ring
// cannot stall shard B's (DESIGN.md "Sharded dispatch").
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "evs/node.hpp"
#include "obs/metrics.hpp"
#include "shard/kv_store.hpp"
#include "shard/router.hpp"
#include "shard/transfer.hpp"
#include "util/status.hpp"

namespace evs::apps {

class KvShardedNode {
 public:
  struct Stats {
    std::uint64_t puts{0};          ///< write ops accepted into a shard ring
    std::uint64_t gets{0};          ///< reads served (hit or miss)
    std::uint64_t get_misses{0};    ///< reads served with no value
    std::uint64_t applied{0};       ///< ops applied from shard total orders
    std::uint64_t rejected_not_replica{0};  ///< op for a shard not held here
    std::uint64_t rejected_backpressure{0};
    std::uint64_t reads_blocked{0};   ///< refused: shard replica not in primary
    std::uint64_t writes_blocked{0};  ///< refused: shard replica not in primary
    std::uint64_t reads_catching_up{0};  ///< refused: replica mid catch-up
    std::uint64_t stale_reads{0};        ///< get_stale() reads served
  };

  /// Per-shard outcome of put_batch: `ops` writes routed to `shard` and
  /// submitted as one all-or-nothing send_batch, with that group's Status.
  struct ShardPutOutcome {
    shard::ShardId shard{0};
    std::size_t ops{0};
    Status status;
  };

  /// put_batch is all-or-nothing PER SHARD, so a partial failure is a list
  /// of per-shard verdicts, not a single Status: the caller must know WHICH
  /// groups were accepted (they will be applied) and which were refused
  /// (they must be retried or surfaced), or a mixed batch silently loses
  /// its rejected half.
  struct PutBatchResult {
    std::vector<ShardPutOutcome> shards;

    bool all_ok() const {
      for (const auto& s : shards) {
        if (!s.status.ok()) return false;
      }
      return true;
    }
    /// First failing shard's status; ok when every group was accepted.
    Status first_error() const {
      for (const auto& s : shards) {
        if (!s.status.ok()) return s.status;
      }
      return Status::ok_status();
    }
  };

  /// `router` must outlive the node and is shared (const) by every process;
  /// the harness updates it on membership change and re-attaches shards.
  /// `transfer` tunes the per-shard state-transfer engines.
  KvShardedNode(ProcessId self, const shard::ShardRouter& router,
                shard::TransferConfig transfer = {});

  /// Wire a locally replicated shard's ring into this agent: it takes over
  /// the node's delivery slot and its configuration slot (which feeds the
  /// shard's transfer engine), and arms the engine's tick timer. Call once
  /// per (agent, shard); re-attaching after a harness remap is allowed and
  /// re-syncs the engine to the node's current configuration.
  void attach_shard(shard::ShardId shard, EvsNode& node);

  bool has_shard(shard::ShardId shard) const;
  std::vector<shard::ShardId> local_shards() const;

  /// Route and submit one write. Fails with invalid_argument when this
  /// process does not replicate the key's shard (the caller routes to a
  /// replica), payload_too_large above the transfer-safe size cap, or
  /// backpressure/not_running from the shard ring. Writes are accepted
  /// while catching up (they are totally ordered like anyone else's).
  Status put(std::string_view key, std::string_view value);
  Status del(std::string_view key);

  /// Submit a batch of writes, grouped by shard, one send_batch per shard.
  /// Every group is attempted; the result reports each group's outcome.
  PutBatchResult put_batch(
      const std::vector<std::pair<std::string, std::string>>& items);

  /// Local serving read. blocked_not_primary when this replica's shard
  /// configuration holds a minority of the assigned replica group;
  /// catching_up while the replica is still state-transferring;
  /// invalid_argument when the shard is not replicated here.
  Expected<std::optional<std::string>> get(std::string_view key);

  /// Degraded-read escape hatch: serve from the local store regardless of
  /// primary membership or catch-up state. The value may be arbitrarily
  /// stale — the caller is explicitly trading consistency for availability.
  /// Counted under kv.stale_reads. Only invalid_argument (not a replica)
  /// remains an error.
  Expected<std::optional<std::string>> get_stale(std::string_view key);

  /// True when the local replica of `shard` is in primary: its current
  /// regular configuration contains a majority of the router's assigned
  /// replica group for the shard.
  bool in_primary(shard::ShardId shard) const;

  /// True while the local replica of `shard` is reconciling after re-merge
  /// (reads refused with Errc::catching_up).
  bool catching_up(shard::ShardId shard) const;

  /// in_primary && !catching_up: the read gate is open.
  bool serving(shard::ShardId shard) const;

  /// The process hosting this agent crashed: volatile shard state — stores
  /// and transfer engines — is wiped. The harness calls this alongside
  /// crashing the shard rings; on recovery the replica re-enters as a
  /// catching-up joiner.
  void on_process_crash();

  Stats stats() const;
  const shard::KvStore* store(shard::ShardId shard) const;

  /// Test support: silently mutate (or, with nullopt, delete) a key in the
  /// local store WITHOUT going through the ring — the injected divergence
  /// anti-entropy must detect and repair. It goes through the store's
  /// reconcile mutators, so the store's maintained digest reflects the
  /// corruption at once. Never call outside tests.
  void corrupt_for_test(shard::ShardId shard, std::string_view key,
                        std::optional<std::string_view> value);

  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }

 private:
  struct LocalShard {
    EvsNode* node{nullptr};
    shard::KvStore store;
    std::unique_ptr<shard::TransferEngine> engine;
    bool tick_armed{false};
  };

  Status submit(shard::ShardId shard,
                std::vector<std::vector<std::uint8_t>> payloads);
  void apply_locked(shard::ShardId shard,
                    std::span<const std::uint8_t> payload);
  bool in_primary_locked(shard::ShardId shard, const LocalShard& ls) const;
  shard::TransferEngine::Ctx ctx_locked(shard::ShardId shard, LocalShard& ls);
  /// (Re-)arm the per-shard engine timer on the shard node's scheduler; the
  /// callback re-arms itself and outlives node crashes (it no-ops while the
  /// node is down and resumes when it restarts).
  void arm_tick_locked(shard::ShardId shard, LocalShard& ls);
  LocalShard* find(shard::ShardId shard);
  const LocalShard* find(shard::ShardId shard) const;

  ProcessId self_;
  const shard::ShardRouter& router_;
  shard::TransferConfig transfer_cfg_;
  std::map<shard::ShardId, LocalShard> shards_;

  // The sim harness is single-threaded; the live harness applies each
  // shard's deliveries on that shard transport's loop thread while reads
  // come from callers — one agent-wide mutex keeps the stores coherent.
  mutable std::mutex mu_;

  /// Liveness token observed weakly by tick-timer callbacks: a timer firing
  /// after this agent is destroyed must drop dead instead of touching it.
  std::shared_ptr<char> alive_{std::make_shared<char>(0)};

  obs::MetricsRegistry metrics_;
  struct Met {
    explicit Met(obs::MetricsRegistry& r);
    obs::Counter& puts;
    obs::Counter& gets;
    obs::Counter& get_misses;
    obs::Counter& applied;
    obs::Counter& rejected_not_replica;
    obs::Counter& rejected_backpressure;
    obs::Counter& reads_blocked;
    obs::Counter& writes_blocked;
    obs::Counter& rejected_decode;
    obs::Gauge& local_shards;
    obs::Histogram& put_batch_size;
  } met_;
  shard::TransferMet met_t_;
};

}  // namespace evs::apps
