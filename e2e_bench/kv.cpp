// KV workloads: the sharded store on testkit::KvLiveCluster, used as is.
//
// Unlike the ring workloads these keep the harness's per-node TraceLog: at
// KV rates each node traces no more than about 1.5k events/s, and the trace
// is the only outside view of when a put commits. put() acks on admission;
// the put's commit is its SAFE delivery at the replica that accepted it.
// The closure that calls put() reads the node's `stats().sent +
// pending_sends()`, which is the ordinal of that put's Send event in the
// node's trace (pending sends are only dropped on fail-stop or crash), and
// the Send event names the message whose Deliver event is the commit.
#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <thread>
#include <unordered_map>

#include "bench_lib.hpp"
#include "testkit/kv_live.hpp"
#include "workload.hpp"

namespace e2e {
namespace {

constexpr std::size_t kProcesses = 5;
constexpr std::uint32_t kShards = 4;
constexpr std::uint32_t kReplication = 3;
constexpr std::uint32_t kKeys = 100'000;
constexpr std::size_t kValueBytes = 64;
constexpr std::size_t kPreloadChunk = 256;
constexpr std::uint64_t kPreloadWriter = ~0ull;
constexpr std::uint64_t kMiss = ~0ull - 1;
constexpr std::uint64_t kBadValue = ~0ull - 2;
/// The partition workload cuts and heals shard 0 in this trial only; the
/// commit percentiles come from the other trials.
constexpr int kPartitionTrial = kTrials / 2;

enum OpState : std::uint8_t {
  kPending = 0,
  kOk = 1,  ///< get served / put accepted
  kRefusedNotPrimary = 2,
  kRefusedCatchingUp = 3,
  kError = 4,
};

struct KvSpec {
  double rate_per_s{0};
  double put_share{0};
  double zipf_theta{0};
  bool partition{false};
};

KvSpec spec_for(const std::string& workload) {
  if (workload == "kv_ycsb_b_partition") return {8'000, 0.05, 0, true};
  return {8'000, 0.5, 0.99, false};
}

std::string key_name(std::uint32_t k) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "k%06u", k);
  return buf;
}

/// "<key>:<writer op id, 16 hex>:" padded to 64 bytes, so a read names the
/// write it returned.
std::string make_value(const std::string& key, std::uint64_t writer) {
  char hex[20];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(writer));
  std::string v = key + ":" + hex + ":";
  v.resize(kValueBytes, 'v');
  return v;
}

std::uint64_t parse_writer(const std::string& value, const std::string& key) {
  if (value.size() != kValueBytes || value.compare(0, key.size(), key) != 0 ||
      value[key.size()] != ':' || value[key.size() + 17] != ':') {
    return kBadValue;
  }
  std::uint64_t w = 0;
  for (std::size_t i = key.size() + 1; i < key.size() + 17; ++i) {
    const char c = value[i];
    const int d = c >= '0' && c <= '9' ? c - '0' : c >= 'a' && c <= 'f' ? c - 'a' + 10 : -1;
    if (d < 0) return kBadValue;
    w = (w << 4) | static_cast<std::uint64_t>(d);
  }
  return w;
}

OpState classify(evs::Errc code) {
  switch (code) {
    case evs::Errc::blocked_not_primary: return kRefusedNotPrimary;
    case evs::Errc::catching_up: return kRefusedCatchingUp;
    default: return kError;
  }
}

struct MsgIdHash {
  std::size_t operator()(const evs::MsgId& m) const {
    return std::hash<std::uint64_t>{}(m.counter * 0x9e3779b97f4a7c15ull ^ m.sender.value);
  }
};

/// The key space, shared by every trial of a run.
struct KeySpace {
  std::vector<std::string> names;
  std::vector<std::uint8_t> shard;  ///< membership-independent key -> shard
};

/// What the trials of one run add up to.
struct KvRun {
  Outcome out;
  std::vector<TrialTotals> trials;
  LayerInputs layers;
  // Samples (ns) pooled over the trials.
  std::vector<std::int64_t> get, admit, hop, get_call, put_call, stamp_wait, order, fanout, lag;
  double outage_ns{0};
  double refused_not_primary{0};
  double refused_catching_up{0};
  double minority_commits{0};
  double catch_up_ms{0};
  double transfer_bytes{0};
};

/// One trial: build and preload the cluster, load it, check it, tear it down.
class KvTrial {
 public:
  KvTrial(const RunConfig& cfg, int trial, const KeySpace& keys)
      : cfg_(cfg),
        trial_(trial),
        spec_(spec_for(cfg.workload)),
        partition_(spec_.partition && trial == kPartitionTrial),
        keys_(keys) {}
  /// False when the cluster could not be built; the reason is in acc.out.
  bool run(KvRun& acc);

 private:
  evs::Status open_cluster(Outcome& out);
  bool preload(Outcome& out);
  void execute(std::uint32_t shard, std::size_t proc, const std::vector<std::uint64_t>& ids);
  void generate();
  template <typename Fn>
  void each_node(Fn fn);
  std::vector<evs::obs::MetricsRegistry> snapshot_registries();
  std::vector<evs::UdpTransport::Stats> transport_stats();
  std::uint32_t shard_of(std::uint64_t id) const { return keys_.shard[schedule_[id].key]; }
  std::size_t target_of(std::uint64_t id) const;

  const RunConfig& cfg_;
  const int trial_;
  const KvSpec spec_;
  const bool partition_;
  const KeySpace& keys_;
  Clock clock_;
  std::unique_ptr<evs::KvLiveCluster> kc_;
  std::vector<ScheduledOp> schedule_;
  std::int64_t load_start_{0};

  // Per-op columns. Each entry is written by one thread (the generator, or
  // the worker that ran the op) and read by run() after the executor
  // stopped.
  std::vector<std::int64_t> due_;
  std::vector<std::uint8_t> state_;
  std::vector<std::int64_t> end_;       ///< get returned / put admitted
  std::vector<std::uint64_t> ordinal_;  ///< put: its Send event's ordinal
  std::vector<std::uint64_t> writer_;   ///< get: writer op id of the value read
  std::vector<std::int64_t> posted_;
  std::vector<std::int64_t> started_;
  std::atomic<std::uint64_t> resolved_{0};
};

std::size_t KvTrial::target_of(std::uint64_t id) const {
  const auto& group = kc_->router().replicas(shard_of(id));
  return group[schedule_[id].pick % group.size()].value - 1;
}

template <typename Fn>
void KvTrial::each_node(Fn fn) {
  for (std::uint32_t s = 0; s < kShards; ++s) {
    for (std::size_t p = 0; p < kProcesses; ++p) fn(s, p);
  }
}

evs::Status KvTrial::open_cluster(Outcome& out) {
  evs::KvLiveCluster::Options o;
  o.num_processes = kProcesses;
  o.num_workers = cfg_.workers;
  o.router.num_shards = kShards;
  o.router.replication = kReplication;
  o.transport.epoch_ns = clock_.epoch_ns();
  kc_ = std::make_unique<evs::KvLiveCluster>(o);
  if (evs::Status st = kc_->open(); !st.ok()) return st;
  if (!kc_->await_stable(30'000'000)) {
    out.errors.push_back("shard rings never formed");
    return evs::Status::error(evs::Errc::not_running, "unstable");
  }
  // A process outside a shard's replica group still runs a node in that
  // ring, and LiveCluster's recording sink would keep an owned copy of each
  // of its deliveries. Nothing reads it here, so those nodes get a no-op
  // handler instead.
  each_node([&](std::uint32_t s, std::size_t p) {
    if (kc_->router().is_replica(s, kc_->pid(p))) return;
    evs::LiveCluster& c = kc_->shard_cluster(s);
    c.call(p, [&c, p] {
      c.node(p).set_on_deliver_batch([](std::span<const evs::EvsNode::DeliveryView>) {});
    });
  });
  if (!preload(out)) return evs::Status::error(evs::Errc::not_running, "preload");
  return evs::Status::ok_status();
}

bool KvTrial::preload(Outcome& out) {
  std::vector<std::vector<std::pair<std::string, std::string>>> items(kShards);
  for (std::uint32_t k = 0; k < kKeys; ++k) {
    items[keys_.shard[k]].emplace_back(keys_.names[k], make_value(keys_.names[k], kPreloadWriter));
  }
  // Round-robin chunks over the shards so all four rings work at once; a
  // chunk refused by flow control is offered again next round.
  std::vector<std::size_t> next(kShards, 0);
  bool pending = true;
  while (pending) {
    pending = false;
    bool progressed = false;
    for (std::uint32_t s = 0; s < kShards; ++s) {
      if (next[s] >= items[s].size()) continue;
      pending = true;
      const std::size_t end = std::min(items[s].size(), next[s] + kPreloadChunk);
      const std::vector<std::pair<std::string, std::string>> chunk(
          items[s].begin() + static_cast<std::ptrdiff_t>(next[s]),
          items[s].begin() + static_cast<std::ptrdiff_t>(end));
      const std::size_t p = kc_->router().replicas(s)[0].value - 1;
      evs::apps::KvShardedNode::PutBatchResult res;
      kc_->shard_cluster(s).call(p, [&] { res = kc_->agent(p).put_batch(chunk); });
      if (res.all_ok()) {
        next[s] = end;
        progressed = true;
      } else if (res.first_error().code() != evs::Errc::backpressure) {
        out.errors.push_back("preload put failed: " + res.first_error().message());
        return false;
      }
    }
    if (pending && !progressed) std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const bool applied = await(
      [&] {
        for (std::uint32_t s = 0; s < kShards; ++s) {
          for (const evs::ProcessId pid : kc_->router().replicas(s)) {
            const std::size_t p = pid.value - 1;
            std::uint64_t n = 0;
            kc_->shard_cluster(s).call(p, [&] { n = kc_->agent(p).store(s)->stats().applied; });
            if (n < items[s].size()) return false;
          }
        }
        return true;
      },
      60);
  if (!applied || !await([&] { return kc_->all_serving(); }, 30)) {
    out.errors.push_back("preload never applied at every replica");
    return false;
  }
  return true;
}

void KvTrial::execute(std::uint32_t shard, std::size_t proc,
                      const std::vector<std::uint64_t>& ids) {
  evs::apps::KvShardedNode& agent = kc_->agent(proc);
  const evs::EvsNode& node = kc_->shard_cluster(shard).node(proc);
  for (const std::uint64_t id : ids) {
    const ScheduledOp& op = schedule_[id];
    const std::string& key = keys_.names[op.key];
    const std::int64_t start = clock_.now();
    if (op.kind == OpKind::Put) {
      const evs::Status st = agent.put(key, make_value(key, id));
      end_[id] = clock_.now();
      if (st.ok()) {
        state_[id] = kOk;
        ordinal_[id] = node.stats().sent + node.pending_sends();
      } else {
        state_[id] = classify(st.code());
      }
    } else {
      const auto got = agent.get(key);
      end_[id] = clock_.now();
      if (got.ok()) {
        state_[id] = kOk;
        writer_[id] = got->has_value() ? parse_writer(**got, key) : kMiss;
      } else {
        state_[id] = classify(got.code());
      }
    }
    if (cfg_.traced) started_[id] = start;
  }
  resolved_.fetch_add(ids.size(), std::memory_order_release);
}

void KvTrial::generate() {
  // Wake-ups within a few microseconds of the due time instead of the
  // default 50 us timer slack.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  std::vector<std::vector<std::uint64_t>> groups(kShards * kProcesses);
  std::size_t i = 0;
  while (i < schedule_.size()) {
    const std::int64_t next_due = load_start_ + schedule_[i].due_ns;
    std::int64_t now = clock_.now();
    if (next_due > now) {
      clock_.sleep_until(next_due);
      now = clock_.now();
    }
    for (; i < schedule_.size() && load_start_ + schedule_[i].due_ns <= now; ++i) {
      due_[i] = load_start_ + schedule_[i].due_ns;
      groups[shard_of(i) * kProcesses + target_of(i)].push_back(i);
    }
    const std::int64_t posted = clock_.now();
    for (std::size_t g = 0; g < groups.size(); ++g) {
      if (groups[g].empty()) continue;
      if (cfg_.traced) {
        for (const std::uint64_t id : groups[g]) posted_[id] = posted;
      }
      const auto shard = static_cast<std::uint32_t>(g / kProcesses);
      const std::size_t proc = g % kProcesses;
      const std::size_t n = groups[g].size();
      if (!kc_->shard_cluster(shard).transport(proc).post(
              [this, shard, proc, ids = std::move(groups[g])] { execute(shard, proc, ids); })) {
        resolved_.fetch_add(n);
      }
      groups[g] = {};
    }
  }
}

std::vector<evs::obs::MetricsRegistry> KvTrial::snapshot_registries() {
  std::vector<evs::obs::MetricsRegistry> out;
  out.reserve(kShards * kProcesses);
  each_node([&](std::uint32_t s, std::size_t p) {
    evs::LiveCluster& c = kc_->shard_cluster(s);
    evs::obs::MetricsRegistry r;
    c.call(p, [&] { r = c.node(p).metrics(); });
    out.push_back(std::move(r));
  });
  return out;
}

std::vector<evs::UdpTransport::Stats> KvTrial::transport_stats() {
  std::vector<evs::UdpTransport::Stats> out;
  each_node([&](std::uint32_t s, std::size_t p) {
    out.push_back(kc_->shard_cluster(s).transport(p).stats());
  });
  return out;
}

bool KvTrial::run(KvRun& acc) {
  Outcome& out = acc.out;
  const double window_s = cfg_.seconds / kTrials;
  ScheduleSpec ss;
  ss.rate_per_s = spec_.rate_per_s;
  ss.seconds = kWarmupSeconds + window_s;
  ss.picks = kReplication;
  ss.keys = kKeys;
  ss.put_share = spec_.put_share;
  ss.zipf_theta = spec_.zipf_theta;
  schedule_ = make_schedule(trial_seed(cfg_.seed, trial_), ss);
  const std::size_t n = schedule_.size();
  due_.assign(n, 0);
  state_.assign(n, kPending);
  end_.assign(n, 0);
  ordinal_.assign(n, 0);
  writer_.assign(n, 0);
  if (cfg_.traced) {
    posted_.assign(n, 0);
    started_.assign(n, 0);
  }

  TrialTotals w;
  w.window_s = window_s;
  w.faulted = partition_;
  const std::int64_t t0 = clock_.now();
  if (evs::Status st = open_cluster(out); !st.ok()) {
    out.no_sockets = st.code() == evs::Errc::transport_io;
    if (out.errors.empty()) out.errors.push_back("cluster open failed: " + st.message());
    return false;
  }
  w.setup_s = static_cast<double>(clock_.now() - t0) / 1e9;
  const evs::shard::ShardRouter& router = kc_->router();
  const std::size_t cut = router.replicas(0).back().value - 1;

  std::vector<std::vector<std::uint64_t>> applied_before(kShards,
                                                         std::vector<std::uint64_t>(kProcesses));
  for (std::uint32_t s = 0; s < kShards; ++s) {
    for (const evs::ProcessId pid : router.replicas(s)) {
      const std::size_t p = pid.value - 1;
      kc_->shard_cluster(s).call(
          p, [&] { applied_before[s][p] = kc_->agent(p).store(s)->stats().applied; });
    }
  }
  const auto regs_before = snapshot_registries();
  const auto net_before = transport_stats();

  load_start_ = clock_.now();
  const std::int64_t window_start = load_start_ + static_cast<std::int64_t>(kWarmupSeconds * 1e9);
  const auto window_ns = static_cast<std::int64_t>(window_s * 1e9);
  const std::int64_t window_end = window_start + window_ns;
  const std::int64_t heal_at = window_start + 2 * window_ns / 3;
  std::thread generator([this] { generate(); });
  clock_.sleep_until(window_start);
  w.cpu_start = CpuSample::now();
  if (partition_) {
    clock_.sleep_until(window_start + window_ns / 3);
    std::vector<std::size_t> majority;
    for (std::size_t p = 0; p < kProcesses; ++p) {
      if (p != cut) majority.push_back(p);
    }
    kc_->partition_shard(0, {majority});
    clock_.sleep_until(heal_at);
    kc_->heal_shard(0);
  }
  clock_.sleep_until(window_end);
  w.cpu_end = CpuSample::now();
  generator.join();
  if (!await([&] { return resolved_.load(std::memory_order_acquire) >= n; }, 30) ||
      !kc_->await_quiesce(60'000'000)) {
    out.errors.push_back("cluster did not quiesce after the load");
  }
  const auto regs_after = snapshot_registries();
  const auto net_after = transport_stats();
  kc_->stop();

  // --- commits, from each shard's trace ---
  std::vector<std::int64_t> stamp(n, 0), first(n, 0), last(n, 0), commit(n, 0);
  std::vector<std::uint8_t> minority(n, 0);
  std::vector<std::uint8_t> delivered_by(n, 0);  ///< bit p: replica process p delivered it
  std::vector<std::vector<std::uint64_t>> delivered_puts(kShards,
                                                          std::vector<std::uint64_t>(kProcesses));
  std::vector<std::vector<std::unordered_map<std::uint64_t, std::uint64_t>>> wanted(
      kShards, std::vector<std::unordered_map<std::uint64_t, std::uint64_t>>(kProcesses));
  for (std::uint64_t id = 0; id < n; ++id) {
    if (schedule_[id].kind == OpKind::Put && state_[id] == kOk) {
      wanted[shard_of(id)][target_of(id)].emplace(ordinal_[id], id);
    }
  }
  std::uint64_t unmapped = 0;
  for (std::uint32_t s = 0; s < kShards; ++s) {
    const evs::TraceLog trace = kc_->shard_cluster(s).merged_trace();
    std::unordered_map<evs::MsgId, std::uint64_t, MsgIdHash> op_of;
    std::vector<std::uint64_t> sends(kProcesses, 0);
    for (const evs::TraceEvent& e : trace.events()) {
      if (e.type != evs::EventType::Send) continue;
      const std::size_t p = e.process.value - 1;
      const auto it = wanted[s][p].find(++sends[p]);
      if (it == wanted[s][p].end()) continue;
      op_of.emplace(e.msg, it->second);
      stamp[it->second] = static_cast<std::int64_t>(e.time) * 1000;
    }
    std::size_t mapped = 0;
    for (const auto& per_proc : wanted[s]) mapped += per_proc.size();
    unmapped += mapped - op_of.size();
    std::vector<std::map<evs::ConfigId, std::vector<evs::ProcessId>>> members(kProcesses);
    for (const evs::TraceEvent& e : trace.events()) {
      const std::size_t p = e.process.value - 1;
      if (e.type == evs::EventType::DeliverConf) members[p][e.config] = e.members;
      if (e.type != evs::EventType::Deliver) continue;
      const auto it = op_of.find(e.msg);
      if (it == op_of.end()) continue;
      const std::uint64_t id = it->second;
      const auto t = static_cast<std::int64_t>(e.time) * 1000;
      first[id] = first[id] == 0 ? t : std::min(first[id], t);
      last[id] = std::max(last[id], t);
      if (router.is_replica(s, e.process)) {
        ++delivered_puts[s][p];
        delivered_by[id] |= static_cast<std::uint8_t>(1u << p);
      }
      if (p != target_of(id)) continue;
      commit[id] = t;
      std::size_t present = 0;
      const auto& m = members[p][e.config];
      for (const evs::ProcessId r : router.replicas(s)) {
        if (std::find(m.begin(), m.end(), r) != m.end()) ++present;
      }
      minority[id] = present * 2 <= router.replicas(s).size();
    }
  }

  // --- output checks ---
  if (unmapped != 0) out.errors.push_back(std::to_string(unmapped) + " accepted puts unmapped");
  // The replicas that stayed in their shard's primary component. The cut
  // replica misses what its shard ordered while it was away; it catches up
  // by state transfer, which replicas_agree covers.
  std::vector<std::uint8_t> stayed(kShards, 0);
  for (std::uint32_t s = 0; s < kShards; ++s) {
    for (const evs::ProcessId pid : router.replicas(s)) {
      const std::size_t p = pid.value - 1;
      if (!(partition_ && s == 0 && p == cut)) stayed[s] |= static_cast<std::uint8_t>(1u << p);
    }
  }
  // A put committed in a primary configuration reaches every replica that
  // stayed. One the cut replica committed in its minority configuration
  // reaches all of them (it went out before the cut) or none: then it is
  // an acknowledged write the heal overwrites.
  std::uint64_t missed = 0;
  std::vector<std::uint8_t> lost(n, 0);
  for (std::uint64_t id = 0; id < n; ++id) {
    if (schedule_[id].kind != OpKind::Put || state_[id] != kOk) continue;
    const std::uint8_t want = stayed[shard_of(id)];
    const std::uint8_t got = delivered_by[id] & want;
    lost[id] = minority[id] && got == 0;
    missed += got != want && !lost[id];
  }
  if (missed != 0) {
    out.errors.push_back(std::to_string(missed) +
                         " accepted puts missed by a replica that stayed in their shard's"
                         " primary component");
  }
  for (std::uint32_t s = 0; s < kShards; ++s) {
    if (!kc_->replicas_agree(s)) {
      out.errors.push_back("replicas of shard " + std::to_string(s) + " disagree");
    }
    for (const evs::ProcessId pid : router.replicas(s)) {
      const std::size_t p = pid.value - 1;
      const std::string who = "shard " + std::to_string(s) + " replica " + std::to_string(p);
      const std::uint64_t applied = kc_->agent(p).store(s)->stats().applied - applied_before[s][p];
      if (applied != delivered_puts[s][p]) {
        out.errors.push_back(who + " applied " + std::to_string(applied) +
                             " puts but delivered " + std::to_string(delivered_puts[s][p]));
      }
    }
  }
  std::uint64_t uncommitted = 0;
  std::uint64_t bad_reads = 0;
  for (std::uint64_t id = 0; id < n; ++id) {
    if (state_[id] != kOk) continue;
    const ScheduledOp& op = schedule_[id];
    if (op.kind == OpKind::Put) {
      uncommitted += commit[id] == 0;
      continue;
    }
    const std::uint64_t wr = writer_[id];
    bad_reads += !(wr == kPreloadWriter || (wr < n && schedule_[wr].kind == OpKind::Put &&
                                            schedule_[wr].key == op.key && state_[wr] == kOk));
  }
  if (uncommitted != 0) {
    out.errors.push_back(std::to_string(uncommitted) +
                         " accepted puts never committed at their replica");
  }
  if (bad_reads != 0) {
    out.errors.push_back(std::to_string(bad_reads) + " reads returned a value no accepted put wrote");
  }

  // --- measurements ---
  std::int64_t first_read_after_heal = 0;
  constexpr std::size_t kSpans = 10'000;
  for (std::uint64_t id = 0; id < n; ++id) {
    const ScheduledOp& op = schedule_[id];
    const bool put = op.kind == OpKind::Put;
    const std::int64_t completed_at = put ? commit[id] : end_[id];
    const bool served = state_[id] == kOk && completed_at != 0;
    if (served && completed_at >= window_start && completed_at < window_end) w.completed += 1;
    const std::uint32_t s = shard_of(id);
    const std::size_t p = target_of(id);
    const auto lane = static_cast<std::uint32_t>(s * 100 + p);
    if (partition_ && !put && served && s == 0 && p == cut && end_[id] > heal_at &&
        (first_read_after_heal == 0 || end_[id] < first_read_after_heal)) {
      first_read_after_heal = end_[id];
    }
    if (due_[id] < window_start || due_[id] >= window_end) continue;
    w.attempted += 1;
    if (!served) {
      const bool refused = state_[id] == kRefusedNotPrimary || state_[id] == kRefusedCatchingUp;
      // Only the replica cut off from shard 0 may turn an op away.
      if (refused && partition_ && s == 0 && p == cut) {
        (state_[id] == kRefusedNotPrimary ? acc.refused_not_primary : acc.refused_catching_up) += 1;
      } else {
        ++out.failed;
      }
      continue;
    }
    w.served += 1;
    if (cfg_.traced) {
      acc.hop.push_back(started_[id] - posted_[id]);
      acc.lag.push_back(posted_[id] - due_[id]);
    }
    if (!put) {
      acc.get.push_back(end_[id] - due_[id]);
      if (!cfg_.traced) continue;
      acc.get_call.push_back(end_[id] - started_[id]);
      if (out.spans.size() < kSpans) {
        out.spans.push_back({"gen_lag", due_[id], posted_[id], lane, id});
        out.spans.push_back({"inbox_hop", posted_[id], started_[id], lane, id});
        out.spans.push_back({"get_call", started_[id], end_[id], lane, id});
      }
      continue;
    }
    w.commit.push_back({static_cast<std::uint32_t>((due_[id] - window_start) / 1000),
                        static_cast<float>(static_cast<double>(commit[id] - due_[id]) / 1e3)});
    acc.admit.push_back(end_[id] - due_[id]);
    if (s == 0) acc.outage_ns = std::max(acc.outage_ns, static_cast<double>(commit[id] - due_[id]));
    acc.minority_commits += lost[id];
    acc.stamp_wait.push_back(std::max<std::int64_t>(0, stamp[id] - end_[id]));
    acc.order.push_back(std::max<std::int64_t>(0, first[id] - stamp[id]));
    acc.fanout.push_back(last[id] - first[id]);
    if (!cfg_.traced) continue;
    acc.put_call.push_back(end_[id] - started_[id]);
    if (out.spans.size() < kSpans) {
      out.spans.push_back({"gen_lag", due_[id], posted_[id], lane, id});
      out.spans.push_back({"inbox_hop", posted_[id], started_[id], lane, id});
      out.spans.push_back({"put_call", started_[id], end_[id], lane, id});
      out.spans.push_back({"stamp_wait", end_[id], stamp[id], lane, id});
      out.spans.push_back({"order", stamp[id], first[id], lane, id});
      // The put commits at its replica, somewhere inside the fan-out.
      out.spans.push_back({"replica_commit", first[id], commit[id], lane, id});
    }
  }
  out.attempted += static_cast<std::uint64_t>(w.attempted);
  if (first_read_after_heal != 0) {
    acc.catch_up_ms = static_cast<double>(first_read_after_heal - heal_at) / 1e6;
  }

  // --- per layer ---
  const evs::obs::MetricsRegistry lifetime = kc_->aggregate_metrics();
  LayerInputs& l = acc.layers;
  l.regs_before.insert(l.regs_before.end(), regs_before.begin(), regs_before.end());
  l.regs_after.insert(l.regs_after.end(), regs_after.begin(), regs_after.end());
  l.net_before.insert(l.net_before.end(), net_before.begin(), net_before.end());
  l.net_after.insert(l.net_after.end(), net_after.begin(), net_after.end());
  l.lifetime.merge_from(lifetime);
  l.load_ops += static_cast<double>(n);
  l.lifetime_ops += static_cast<double>(n + kKeys);
  l.cpu_user_us += w.cpu_end.user_us - w.cpu_start.user_us;
  l.cpu_sys_us += w.cpu_end.sys_us - w.cpu_start.sys_us;
  acc.transfer_bytes += static_cast<double>(lifetime.counter_value("kv.transfer.bytes_sent"));
  acc.trials.push_back(std::move(w));
  return true;
}

}  // namespace

Outcome run_kv(const RunConfig& cfg) {
  KeySpace keys;
  evs::shard::ShardRouter::Options ro;
  ro.num_shards = kShards;
  ro.replication = kReplication;
  const evs::shard::ShardRouter router(ro);
  for (std::uint32_t k = 0; k < kKeys; ++k) {
    keys.names.push_back(key_name(k));
    keys.shard.push_back(static_cast<std::uint8_t>(router.shard_of_key(keys.names.back())));
  }
  KvRun acc;
  for (int trial = 0; trial < kTrials; ++trial) {
    if (!KvTrial(cfg, trial, keys).run(acc)) return std::move(acc.out);
  }
  Outcome& out = acc.out;
  out.end_to_end = end_to_end_metrics(acc.trials, peak_rss_mb());
  out.notes = commit_tail_notes(acc.trials);
  out.notes.emplace_back("gets_in_window", static_cast<double>(acc.get.size()));
  Layers& l = out.per_layer;
  common_layers(acc.layers, l);
  l["shard.transfer_bytes"] = acc.transfer_bytes;
  l["shard.outage_ms"] = acc.outage_ns / 1e6;
  l["shard.catch_up_ms"] = acc.catch_up_ms;
  l["apps.kv.get_p50_us"] = percentile(sorted_us(acc.get), 50);
  l["apps.kv.get_p99_us"] = percentile(sorted_us(acc.get), 99);
  l["apps.kv.put_admit_us_p50"] = percentile(sorted_us(acc.admit), 50);
  l["apps.kv.refused_not_primary"] = acc.refused_not_primary;
  l["apps.kv.refused_catching_up"] = acc.refused_catching_up;
  l["apps.kv.minority_commits"] = acc.minority_commits;
  l["evs.stamp_wait_us_p50"] = percentile(sorted_us(acc.stamp_wait), 50);
  l["evs.order_us_p50"] = percentile(sorted_us(acc.order), 50);
  l["evs.fanout_us_p50"] = percentile(sorted_us(acc.fanout), 50);
  if (cfg.traced) {
    l["net.inbox_hop_us_p50"] = percentile(sorted_us(acc.hop), 50);
    l["net.inbox_hop_us_p99"] = percentile(sorted_us(acc.hop), 99);
    l["apps.kv.get_call_us_p99"] = percentile(sorted_us(acc.get_call), 99);
    l["apps.kv.put_call_us_p99"] = percentile(sorted_us(acc.put_call), 99);
    l["bench.gen_lag_us_p99"] = percentile(sorted_us(acc.lag), 99);
  }
  return std::move(out);
}

}  // namespace e2e
