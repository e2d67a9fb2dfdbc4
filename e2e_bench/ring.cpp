// Ring workloads: one 5-node EVS ring over loopback UDP, driven the way an
// application drives it.
//
// The ring is built here (UdpTransport + StableStore + EvsNode on one
// net::Executor) instead of on testkit::LiveCluster because LiveCluster
// always records an unbounded TraceLog and an owned copy of every delivery
// on the worker threads. On a 5-node Agreed ring at 40k msgs/s that moved
// p99 delivery from about 0.65 ms to 5-9 ms, so it would measure the
// harness, not the protocol. Traced runs attach a TraceLog per node here
// and drain it on the node's own worker every 50 ms.
//
// Per-op state lives in fixed tables allocated before the clock starts, so
// the process's memory does not grow with the number of ops a run manages
// and peak_rss_mb reflects the ring, not the benchmark's bookkeeping.
#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <span>
#include <thread>
#include <unordered_map>

#include "bench_lib.hpp"
#include "evs/node.hpp"
#include "net/executor.hpp"
#include "spec/trace.hpp"
#include "storage/stable_store.hpp"
#include "testkit/live_cluster.hpp"
#include "workload.hpp"

namespace e2e {
namespace {

constexpr std::size_t kRingSize = 5;
constexpr std::size_t kPayloadBytes = 64;
constexpr std::uint64_t kPayloadCheck = 0x5a17c0de5eedbeefull;
/// Closed loop: each refill queues send_batch chunks of this many messages.
constexpr std::uint64_t kChunk = 64;
constexpr std::uint64_t kNoBatch = ~0ull;
/// Ops in flight at once, at most (an op id's slot is id % kSlots).
constexpr std::size_t kSlots = 1u << 18;
constexpr std::size_t kMaxSamples = 1u << 20;
constexpr std::size_t kMaxStages = 1u << 19;
/// The closed loop completes ~10x more ops than the open one; it keeps one
/// latency sample per 8 completions and one stage record per 16 ops.
constexpr std::uint64_t kClosedSampleEvery = 8;
constexpr std::uint64_t kClosedStageEvery = 16;
constexpr std::int64_t kTraceDrainNs = 50'000'000;

struct RingSpec {
  evs::Service service{evs::Service::Agreed};
  bool closed_loop{false};
  double rate_per_s{0};
};

RingSpec spec_for(const std::string& workload) {
  if (workload == "ring_safe_saturate") return {evs::Service::Safe, true, 0};
  return {evs::Service::Agreed, false, 20'000};
}

/// 64 bytes: op id, op id ^ check, due time (ns); the rest repeats the
/// op id's low byte.
std::vector<std::uint8_t> make_payload(std::uint64_t op, std::int64_t due) {
  std::vector<std::uint8_t> p(kPayloadBytes, static_cast<std::uint8_t>(op));
  const std::uint64_t check = op ^ kPayloadCheck;
  std::memcpy(p.data(), &op, sizeof(op));
  std::memcpy(p.data() + 8, &check, sizeof(check));
  std::memcpy(p.data() + 16, &due, sizeof(due));
  return p;
}

/// Which op holds a slot (id + 1; 0 = free) and how many members have
/// delivered it. Both are written and read through std::atomic_ref.
struct Slot {
  std::uint64_t op_plus1{0};
  std::uint8_t copies{0};
};

/// A traced op's stage times (ns since the epoch); 0 = not reached.
struct Stage {
  std::int64_t due{0};
  std::int64_t posted{0};
  std::int64_t started{0};
  std::int64_t accepted{0};
  std::int64_t stamped{0};
  std::int64_t first{0};
  std::int64_t done{0};
  std::uint32_t sender{0};
};

/// What the trials of one run add up to.
struct RingRun {
  Outcome out;
  std::vector<TrialTotals> trials;
  LayerInputs layers;
  // Traced runs: stage samples (ns) pooled over the trials.
  std::vector<std::int64_t> hop, call, stamp_wait, order, fanout, lag;
};

/// One trial: build a ring, load it, check what it delivered, tear it down.
class RingTrial {
 public:
  RingTrial(const RunConfig& cfg, int trial)
      : cfg_(cfg),
        trial_(trial),
        spec_(spec_for(cfg.workload)),
        sample_every_(spec_.closed_loop ? kClosedSampleEvery : 1),
        stage_every_(spec_.closed_loop ? kClosedStageEvery : 1) {}
  /// False when the ring could not be built; the reason is in acc.out.
  bool run(RingRun& acc);

 private:
  struct Member {
    std::unique_ptr<evs::UdpTransport> transport;
    evs::StableStore store;
    std::unique_ptr<evs::TraceLog> trace;
    std::unique_ptr<evs::EvsNode> node;
    std::uint32_t index{0};
    // Touched only on this member's worker, and by run() once it stopped.
    std::uint64_t delivered{0};
    std::uint64_t order_hash{0};
    std::uint64_t bad{0};  ///< malformed, unknown or duplicate deliveries
    std::uint64_t window_completions{0};
    std::uint64_t spare_base{kNoBatch};  ///< ids held by a refused chunk
    /// Traced: msg counter -> stage record, until its Send event is drained.
    std::unordered_map<std::uint64_t, Stage*> awaiting_stamp;
  };
  struct Ring {
    std::vector<std::unique_ptr<Member>> members;
    /// Declared after the members: destroyed (stopped) first.
    std::unique_ptr<evs::net::Executor> executor;
  };

  evs::Status open_ring();
  bool stable();
  Stage* stage_of(std::uint64_t op);
  void claim(std::uint64_t op);
  void release(std::uint64_t op);
  void on_deliver(Member& m, std::span<const std::uint8_t> payload, std::int64_t now);
  void accepted(Member& m, std::uint64_t op, std::int64_t start, std::int64_t at,
                std::uint64_t msg);
  void send_open(Member& m, const std::vector<std::uint64_t>& ids);
  void refill(Member& m);
  void generate();
  void drain_trace(Member& m);
  void wait_until(std::int64_t t);
  std::vector<evs::obs::MetricsRegistry> snapshot_registries();
  std::vector<evs::UdpTransport::Stats> transport_stats();
  bool in_window(std::int64_t t) const {
    return t >= window_start_.load(std::memory_order_relaxed) &&
           t < window_end_.load(std::memory_order_relaxed);
  }

  const RunConfig& cfg_;
  const int trial_;
  const RingSpec spec_;
  const std::uint64_t sample_every_;
  const std::uint64_t stage_every_;
  Clock clock_;
  std::vector<ScheduledOp> schedule_;
  std::unique_ptr<Ring> ring_;
  /// When the load (warm-up first) starts; schedule due times count from it.
  std::int64_t load_start_{0};

  std::vector<Slot> slots_ = std::vector<Slot>(kSlots);
  std::vector<LatencySample> samples_ = std::vector<LatencySample>(kMaxSamples);
  std::vector<Stage> stages_;  ///< traced runs only; indexed by op / stage_every_

  std::atomic<std::int64_t> window_start_{INT64_MAX};
  std::atomic<std::int64_t> window_end_{INT64_MAX};
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> window_attempted_{0};  ///< closed loop
  std::atomic<std::uint64_t> window_served_{0};
  std::atomic<std::uint64_t> window_completed_{0};
  std::atomic<std::uint64_t> n_samples_{0};
  std::atomic<std::uint64_t> next_op_{0};
  std::atomic<std::uint64_t> send_errors_{0};
  std::atomic<std::uint64_t> overflows_{0};  ///< slot reclaimed while in flight
  std::atomic<bool> stop_load_{false};
};

evs::Status RingTrial::open_ring() {
  ring_ = std::make_unique<Ring>();
  evs::net::Executor::Options eo;
  eo.num_workers = cfg_.workers;
  ring_->executor = std::make_unique<evs::net::Executor>(eo);
  evs::UdpTransport::Options to;
  to.epoch_ns = clock_.epoch_ns();
  for (std::uint32_t i = 0; i < kRingSize; ++i) {
    auto m = std::make_unique<Member>();
    m->index = i;
    m->transport = std::make_unique<evs::UdpTransport>(to);
    if (evs::Status st = m->transport->open(); !st.ok()) return st;
    if (cfg_.traced) m->trace = std::make_unique<evs::TraceLog>();
    ring_->members.push_back(std::move(m));
  }
  for (auto& m : ring_->members) {
    for (std::uint32_t j = 0; j < kRingSize; ++j) {
      if (evs::Status st = m->transport->add_peer(
              evs::ProcessId{j + 1}, ring_->members[j]->transport->local_addr());
          !st.ok()) {
        return st;
      }
    }
  }
  for (auto& m : ring_->members) {
    Member* mp = m.get();
    m->node = std::make_unique<evs::EvsNode>(evs::ProcessId{m->index + 1}, *m->transport,
                                             m->store, m->trace.get(),
                                             evs::live_node_defaults());
    // Transitional deliveries come through the per-message handler.
    m->node->set_on_deliver([this, mp](const evs::EvsNode::Delivery& d) {
      on_deliver(*mp, d.payload, clock_.now());
    });
    m->node->set_on_deliver_batch(
        [this, mp](std::span<const evs::EvsNode::DeliveryView> batch) {
          const std::int64_t now = clock_.now();
          for (const auto& d : batch) on_deliver(*mp, d.payload, now);
        });
    if (spec_.closed_loop) m->node->set_on_send_drain([this, mp] { refill(*mp); });
    ring_->executor->add(m->transport.get());
  }
  if (evs::Status st = ring_->executor->start(); !st.ok()) return st;
  for (auto& m : ring_->members) {
    evs::EvsNode* node = m->node.get();
    call_on(*m->transport, [node] { node->start(); });
  }
  return evs::Status::ok_status();
}

bool RingTrial::stable() {
  std::vector<evs::Configuration> configs(kRingSize);
  for (std::size_t i = 0; i < kRingSize; ++i) {
    Member& m = *ring_->members[i];
    bool operational = false;
    call_on(*m.transport, [&] {
      operational = m.node->state() == evs::EvsNode::State::Operational;
      configs[i] = m.node->config();
    });
    if (!operational || configs[i].members.size() != kRingSize ||
        !(configs[i].id == configs[0].id)) {
      return false;
    }
  }
  return true;
}

Stage* RingTrial::stage_of(std::uint64_t op) {
  if (!cfg_.traced || op % stage_every_ != 0 || op / stage_every_ >= kMaxStages) return nullptr;
  return &stages_[op / stage_every_];
}

void RingTrial::claim(std::uint64_t op) {
  Slot& s = slots_[op % kSlots];
  if (std::atomic_ref<std::uint64_t>(s.op_plus1).load(std::memory_order_relaxed) != 0 &&
      std::atomic_ref<std::uint8_t>(s.copies).load(std::memory_order_relaxed) != kRingSize) {
    overflows_.fetch_add(1);
  }
  std::atomic_ref<std::uint8_t>(s.copies).store(0, std::memory_order_relaxed);
  std::atomic_ref<std::uint64_t>(s.op_plus1).store(op + 1, std::memory_order_release);
}

void RingTrial::release(std::uint64_t op) {
  std::atomic_ref<std::uint64_t>(slots_[op % kSlots].op_plus1).store(0, std::memory_order_relaxed);
}

void RingTrial::on_deliver(Member& m, std::span<const std::uint8_t> payload,
                           std::int64_t now) {
  std::uint64_t op = 0;
  std::uint64_t check = 0;
  std::int64_t due = 0;
  if (payload.size() == kPayloadBytes) {
    std::memcpy(&op, payload.data(), sizeof(op));
    std::memcpy(&check, payload.data() + 8, sizeof(check));
    std::memcpy(&due, payload.data() + 16, sizeof(due));
  }
  Slot& s = slots_[op % kSlots];
  if (payload.size() != kPayloadBytes || check != (op ^ kPayloadCheck) ||
      std::atomic_ref<std::uint64_t>(s.op_plus1).load(std::memory_order_acquire) != op + 1) {
    ++m.bad;
    return;
  }
  ++m.delivered;
  m.order_hash = (m.order_hash ^ op) * 0x100000001b3ull;
  Stage* st = stage_of(op);
  if (st != nullptr) {
    std::int64_t unset = 0;
    std::atomic_ref<std::int64_t>(st->first).compare_exchange_strong(unset, now,
                                                                     std::memory_order_relaxed);
  }
  const unsigned copies =
      std::atomic_ref<std::uint8_t>(s.copies).fetch_add(1, std::memory_order_acq_rel) + 1u;
  if (copies > kRingSize) ++m.bad;
  if (copies != kRingSize) return;
  // Delivered at every member: the op is committed.
  completed_.fetch_add(1, std::memory_order_release);
  if (in_window(now)) window_completed_.fetch_add(1, std::memory_order_relaxed);
  if (st != nullptr) std::atomic_ref<std::int64_t>(st->done).store(now, std::memory_order_relaxed);
  if (!in_window(due)) return;
  window_served_.fetch_add(1, std::memory_order_relaxed);
  if (m.window_completions++ % sample_every_ != 0) return;
  const std::uint64_t i = n_samples_.fetch_add(1, std::memory_order_relaxed);
  if (i < kMaxSamples) {
    samples_[i] = {static_cast<std::uint32_t>((due - window_start_.load()) / 1000),
                   static_cast<float>(static_cast<double>(now - due) / 1e3)};
  }
}

void RingTrial::accepted(Member& m, std::uint64_t op, std::int64_t start, std::int64_t at,
                         std::uint64_t msg) {
  Stage* st = stage_of(op);
  if (st == nullptr) return;
  st->started = start;
  st->accepted = at;
  st->sender = m.index;
  m.awaiting_stamp.emplace(msg, st);
}

void RingTrial::send_open(Member& m, const std::vector<std::uint64_t>& ids) {
  const std::int64_t start = clock_.now();
  std::vector<std::vector<std::uint8_t>> payloads;
  payloads.reserve(ids.size());
  for (const std::uint64_t id : ids) {
    claim(id);
    payloads.push_back(make_payload(id, load_start_ + schedule_[id].due_ns));
  }
  auto sent = m.node->send_batch(spec_.service, std::move(payloads));
  const std::int64_t at = clock_.now();
  if (!sent.ok()) {
    for (const std::uint64_t id : ids) release(id);
    rejected_.fetch_add(ids.size(), std::memory_order_release);
    return;
  }
  for (std::size_t k = 0; k < ids.size(); ++k) accepted(m, ids[k], start, at, (*sent)[k].counter);
  accepted_.fetch_add(ids.size(), std::memory_order_release);
}

void RingTrial::refill(Member& m) {
  // Closed loop: keep the node's send queue topped up until a chunk is
  // refused; that refusal arms the drain callback, which calls back here
  // once the queue is half empty.
  while (!stop_load_.load(std::memory_order_acquire)) {
    if (m.spare_base == kNoBatch) m.spare_base = next_op_.fetch_add(kChunk);
    const std::int64_t start = clock_.now();
    std::vector<std::vector<std::uint8_t>> payloads;
    payloads.reserve(kChunk);
    for (std::uint64_t k = 0; k < kChunk; ++k) {
      claim(m.spare_base + k);
      payloads.push_back(make_payload(m.spare_base + k, start));
    }
    auto sent = m.node->send_batch(spec_.service, std::move(payloads));
    if (!sent.ok()) {
      for (std::uint64_t k = 0; k < kChunk; ++k) release(m.spare_base + k);
      if (sent.code() != evs::Errc::backpressure) send_errors_.fetch_add(1);
      return;
    }
    const std::int64_t at = clock_.now();
    for (std::uint64_t k = 0; k < kChunk; ++k) {
      if (Stage* st = stage_of(m.spare_base + k); st != nullptr) st->due = start;
      accepted(m, m.spare_base + k, start, at, (*sent)[k].counter);
    }
    if (in_window(start)) window_attempted_.fetch_add(kChunk, std::memory_order_relaxed);
    accepted_.fetch_add(kChunk, std::memory_order_release);
    m.spare_base = kNoBatch;
  }
}

void RingTrial::generate() {
  // Wake-ups within a few microseconds of the due time instead of the
  // default 50 us timer slack.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  std::vector<std::vector<std::uint64_t>> groups(kRingSize);
  std::size_t i = 0;
  while (i < schedule_.size()) {
    const std::int64_t next_due = load_start_ + schedule_[i].due_ns;
    std::int64_t now = clock_.now();
    if (next_due > now) {
      clock_.sleep_until(next_due);
      now = clock_.now();
    }
    for (; i < schedule_.size() && load_start_ + schedule_[i].due_ns <= now; ++i) {
      groups[schedule_[i].pick].push_back(i);
    }
    const std::int64_t posted = clock_.now();
    for (std::size_t g = 0; g < kRingSize; ++g) {
      if (groups[g].empty()) continue;
      for (const std::uint64_t id : groups[g]) {
        if (Stage* st = stage_of(id); st != nullptr) {
          st->due = load_start_ + schedule_[id].due_ns;
          st->posted = posted;
        }
      }
      Member* m = ring_->members[g].get();
      const std::size_t n = groups[g].size();
      if (!m->transport->post(
              [this, m, ids = std::move(groups[g])] { send_open(*m, ids); })) {
        rejected_.fetch_add(n);
      }
      groups[g] = {};
    }
  }
}

void RingTrial::drain_trace(Member& m) {
  for (const evs::TraceEvent& e : m.trace->events()) {
    if (e.type != evs::EventType::Send) continue;
    const auto it = m.awaiting_stamp.find(e.msg.counter);
    if (it == m.awaiting_stamp.end()) continue;
    it->second->stamped = static_cast<std::int64_t>(e.time) * 1000;
    m.awaiting_stamp.erase(it);
  }
  m.trace->clear();
}

void RingTrial::wait_until(std::int64_t t) {
  while (clock_.now() < t) {
    clock_.sleep_until(std::min(t, clock_.now() + kTraceDrainNs));
    if (!cfg_.traced) continue;
    for (auto& m : ring_->members) {
      Member* mp = m.get();
      (void)m->transport->post([this, mp] { drain_trace(*mp); });
    }
  }
}

std::vector<evs::obs::MetricsRegistry> RingTrial::snapshot_registries() {
  std::vector<evs::obs::MetricsRegistry> out(kRingSize);
  for (std::size_t i = 0; i < kRingSize; ++i) {
    Member& m = *ring_->members[i];
    call_on(*m.transport, [&] { out[i] = m.node->metrics(); });
  }
  return out;
}

std::vector<evs::UdpTransport::Stats> RingTrial::transport_stats() {
  std::vector<evs::UdpTransport::Stats> out;
  for (auto& m : ring_->members) out.push_back(m->transport->stats());
  return out;
}

bool RingTrial::run(RingRun& acc) {
  Outcome& out = acc.out;
  const double window_s = cfg_.seconds / kTrials;
  if (!spec_.closed_loop) {
    ScheduleSpec s;
    s.rate_per_s = spec_.rate_per_s;
    s.seconds = kWarmupSeconds + window_s;
    s.picks = kRingSize;
    schedule_ = make_schedule(trial_seed(cfg_.seed, trial_), s);
  }
  if (cfg_.traced) stages_.resize(kMaxStages);

  TrialTotals w;
  w.window_s = window_s;
  const std::int64_t t0 = clock_.now();
  if (evs::Status st = open_ring(); !st.ok()) {
    out.no_sockets = st.code() == evs::Errc::transport_io;
    out.errors.push_back("ring open failed: " + st.message());
    return false;
  }
  if (!await([this] { return stable(); }, 30)) {
    out.errors.push_back("ring never formed");
    return false;
  }
  w.setup_s = static_cast<double>(clock_.now() - t0) / 1e9;

  const auto regs_before = snapshot_registries();
  const auto net_before = transport_stats();
  load_start_ = clock_.now();
  const std::int64_t window_start = load_start_ + static_cast<std::int64_t>(kWarmupSeconds * 1e9);
  const std::int64_t window_end = window_start + static_cast<std::int64_t>(window_s * 1e9);
  window_start_ = window_start;
  window_end_ = window_end;
  std::thread generator;
  if (spec_.closed_loop) {
    for (auto& m : ring_->members) {
      Member* mp = m.get();
      (void)m->transport->post([this, mp] { refill(*mp); });
    }
  } else {
    generator = std::thread([this] { generate(); });
  }
  wait_until(window_start);
  w.cpu_start = CpuSample::now();
  wait_until(window_end);
  w.cpu_end = CpuSample::now();
  stop_load_ = true;
  if (generator.joinable()) generator.join();
  // A refill already past its stop check finishes before this barrier.
  for (auto& m : ring_->members) call_on(*m->transport, [] {});
  const bool drained = await(
      [&] {
        const std::uint64_t acc_ops = accepted_.load(std::memory_order_acquire);
        return acc_ops + rejected_.load() >= schedule_.size() && completed_.load() == acc_ops;
      },
      30);
  if (!drained) out.errors.push_back("accepted messages were not delivered at every member");
  const auto regs_after = snapshot_registries();
  const auto net_after = transport_stats();
  ring_->executor->stop();
  if (cfg_.traced) {
    for (auto& m : ring_->members) drain_trace(*m);
  }

  // --- output checks ---
  const Member& first = *ring_->members[0];
  for (const auto& m : ring_->members) {
    if (m->bad != 0) {
      out.errors.push_back("member " + std::to_string(m->index) + " delivered " +
                           std::to_string(m->bad) + " malformed, unsent or duplicate messages");
    }
    if (m->delivered != accepted_ || m->order_hash != first.order_hash) {
      out.errors.push_back("member " + std::to_string(m->index) + " delivered " +
                           std::to_string(m->delivered) + " of " + std::to_string(accepted_) +
                           " messages, or in another order than member 0");
    }
  }
  for (const Slot& s : slots_) {
    if (s.op_plus1 != 0 && s.copies != kRingSize) {
      out.errors.push_back("an accepted message was not delivered at every member");
      break;
    }
  }
  if (overflows_ != 0) out.errors.push_back("more than " + std::to_string(kSlots) + " ops in flight");
  if (send_errors_ != 0) out.errors.push_back("send_batch failed other than by backpressure");

  // --- end to end ---
  std::uint64_t attempted = window_attempted_;
  if (!spec_.closed_loop) {
    attempted = 0;
    for (const ScheduledOp& op : schedule_) {
      const std::int64_t due = load_start_ + op.due_ns;
      attempted += due >= window_start && due < window_end;
    }
  }
  w.attempted = static_cast<double>(attempted);
  w.served = static_cast<double>(window_served_);
  w.completed = static_cast<double>(window_completed_);
  w.commit.assign(samples_.begin(),
                  samples_.begin() + static_cast<std::ptrdiff_t>(
                                         std::min<std::uint64_t>(n_samples_, kMaxSamples)));
  out.attempted += attempted;
  out.failed += attempted - std::min<std::uint64_t>(attempted, window_served_);

  // --- per layer ---
  LayerInputs& l = acc.layers;
  l.regs_before.insert(l.regs_before.end(), regs_before.begin(), regs_before.end());
  l.regs_after.insert(l.regs_after.end(), regs_after.begin(), regs_after.end());
  l.net_before.insert(l.net_before.end(), net_before.begin(), net_before.end());
  l.net_after.insert(l.net_after.end(), net_after.begin(), net_after.end());
  l.lifetime.merge_from(ring_->executor->metrics());
  for (const auto& m : ring_->members) l.lifetime.merge_from(m->store.metrics());
  l.load_ops += static_cast<double>(accepted_.load());
  l.lifetime_ops += static_cast<double>(accepted_.load());
  l.cpu_user_us += w.cpu_end.user_us - w.cpu_start.user_us;
  l.cpu_sys_us += w.cpu_end.sys_us - w.cpu_start.sys_us;
  acc.trials.push_back(std::move(w));
  if (!cfg_.traced) return true;
  constexpr std::size_t kSpans = 10'000;
  for (const Stage& st : stages_) {
    if (st.done == 0 || st.stamped == 0 || st.due < window_start || st.due >= window_end) continue;
    if (!spec_.closed_loop) {
      acc.hop.push_back(st.started - st.posted);
      acc.lag.push_back(st.posted - st.due);
    }
    acc.call.push_back(st.accepted - st.started);
    acc.stamp_wait.push_back(std::max<std::int64_t>(0, st.stamped - st.accepted));
    acc.order.push_back(std::max<std::int64_t>(0, st.first - st.stamped));
    acc.fanout.push_back(st.done - st.first);
    if (out.spans.size() < kSpans) {
      const auto op = static_cast<std::uint64_t>(&st - stages_.data()) * stage_every_;
      if (!spec_.closed_loop) {
        out.spans.push_back({"gen_lag", st.due, st.posted, st.sender, op});
        out.spans.push_back({"inbox_hop", st.posted, st.started, st.sender, op});
      }
      out.spans.push_back({"send_batch", st.started, st.accepted, st.sender, op});
      out.spans.push_back({"stamp_wait", st.accepted, st.stamped, st.sender, op});
      out.spans.push_back({"order", st.stamped, st.first, st.sender, op});
      out.spans.push_back({"fanout", st.first, st.done, st.sender, op});
    }
  }
  return true;
}

}  // namespace

Outcome run_ring(const RunConfig& cfg) {
  RingRun acc;
  for (int trial = 0; trial < kTrials; ++trial) {
    if (!RingTrial(cfg, trial).run(acc)) return std::move(acc.out);
  }
  Outcome& out = acc.out;
  out.end_to_end = end_to_end_metrics(acc.trials, peak_rss_mb());
  out.notes = commit_tail_notes(acc.trials);
  Layers& l = out.per_layer;
  common_layers(acc.layers, l);
  if (cfg.traced) {
    l["net.inbox_hop_us_p50"] = percentile(sorted_us(acc.hop), 50);
    l["net.inbox_hop_us_p99"] = percentile(sorted_us(acc.hop), 99);
    l["evs.send_batch_call_us_p99"] = percentile(sorted_us(acc.call), 99);
    l["evs.stamp_wait_us_p50"] = percentile(sorted_us(acc.stamp_wait), 50);
    l["evs.order_us_p50"] = percentile(sorted_us(acc.order), 50);
    l["evs.fanout_us_p50"] = percentile(sorted_us(acc.fanout), 50);
    l["bench.gen_lag_us_p99"] = percentile(sorted_us(acc.lag), 99);
    out.notes.emplace_back("stage_samples", static_cast<double>(acc.call.size()));
  }
  return std::move(out);
}

}  // namespace e2e
