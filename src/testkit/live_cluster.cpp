#include "testkit/live_cluster.hpp"

#include <algorithm>
#include <chrono>
#include <future>
#include <thread>
#include <utility>

#include "util/assert.hpp"
#include "util/log.hpp"

namespace evs {

namespace {

SimTime wall_us() {
  return static_cast<SimTime>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void sleep_us(SimTime us) {
  std::this_thread::sleep_for(std::chrono::microseconds(us));
}

}  // namespace

EvsNode::Options live_node_defaults() {
  EvsNode::Options o;
  o.token_loss_timeout_us = 120'000;
  o.token_retransmit_interval_us = 25'000;  // limit 3 -> 75 ms < 120 ms
  o.beacon_interval_us = 25'000;
  o.join_interval_us = 10'000;
  o.gather_fail_timeout_us = 80'000;
  o.consensus_wait_timeout_us = 120'000;
  o.exchange_interval_us = 10'000;
  o.recovery_timeout_us = 400'000;
  return o;
}

EvsNode::Options live_node_defaults_scaled(std::size_t n) {
  EvsNode::Options o = live_node_defaults();
  if (n <= 8) return o;
  // Same dilation and same fields as EvsNode::Options::scaled_for, applied
  // to the wall-clock profile; every validate() ratio is preserved because
  // all the bases stretch by one factor.
  const SimTime f = static_cast<SimTime>((n + 7) / 8);
  o.token_loss_timeout_us *= f;
  o.beacon_interval_us *= f;
  o.join_interval_us *= f;
  o.gather_fail_timeout_us *= f;
  o.consensus_wait_timeout_us *= f;
  o.exchange_interval_us *= f;
  o.recovery_timeout_us *= f;
  o.token_retransmit_interval_us *= f;
  return o;
}

bool LiveCluster::Sink::delivered(const MsgId& m) const {
  return std::any_of(deliveries.begin(), deliveries.end(),
                     [&](const EvsNode::Delivery& d) { return d.id == m; });
}

LiveCluster::LiveCluster(Options options) : options_(std::move(options)) {
  // One shared epoch for every member: trace timestamps from different
  // processes must sit on the same time base or the spec checker's
  // cross-process send-before-delivery comparison would see the per-node
  // start stagger as causality violations.
  if (options_.transport.epoch_ns == 0) {
    options_.transport.epoch_ns = UdpTransport::monotonic_now_ns();
  }
  procs_.reserve(options_.num_processes);
  for (std::size_t i = 0; i < options_.num_processes; ++i) {
    auto proc = std::make_unique<Proc>();
    proc->pid = ProcessId{static_cast<std::uint32_t>(i + 1)};
    proc->transport = std::make_unique<UdpTransport>(options_.transport);
    proc->store = std::make_unique<StableStore>();
    proc->trace = std::make_unique<TraceLog>();
    procs_.push_back(std::move(proc));
  }
  group_of_.assign(procs_.size(), 0);
}

LiveCluster::~LiveCluster() { stop(); }

ProcessId LiveCluster::pid(std::size_t index) const {
  EVS_ASSERT(index < procs_.size());
  return procs_[index]->pid;
}

Status LiveCluster::prepare(net::Executor& executor) {
  if (opened_) {
    // Lifecycle misuse is a reportable error, not an abort: a harness that
    // opens twice gets told so and keeps its first instance intact.
    return Status::error(Errc::invalid_argument,
                         "LiveCluster::open() called twice");
  }
  opened_ = true;
  executor_ = &executor;

  // 1. Bind every socket first so the full address mesh is known.
  for (auto& proc : procs_) {
    if (Status st = proc->transport->open(); !st.ok()) return st;
  }
  // 2. Register the mesh (every peer, including the process itself: that is
  // what loops broadcasts back through the kernel). Fresh ephemeral binds
  // cannot collide, so an alias error here is a real harness bug.
  for (auto& proc : procs_) {
    for (auto& other : procs_) {
      if (Status st = proc->transport->add_peer(other->pid,
                                                other->transport->local_addr());
          !st.ok()) {
        return st;
      }
    }
  }
  // 3. Construct and wire the nodes; every protocol action they ever take
  // happens on the executor worker that drives their transport.
  for (auto& proc : procs_) {
    proc->node = std::make_unique<EvsNode>(proc->pid, *proc->transport,
                                           *proc->store, proc->trace.get(),
                                           options_.node);
    Proc* p = proc.get();
    proc->node->set_on_deliver([p](const EvsNode::Delivery& d) {
      p->sink.deliveries.push_back(d);
      p->delivered.fetch_add(1, std::memory_order_relaxed);
    });
    proc->node->set_on_config_change(
        [p](const Configuration& c) { p->sink.configs.push_back(c); });
    executor.add(proc->transport.get());
  }
  return Status::ok_status();
}

void LiveCluster::launch() {
  EVS_ASSERT_MSG(executor_ != nullptr && executor_->running(),
                 "launch() before the executor started");
  running_ = true;
  for (std::size_t i = 0; i < procs_.size(); ++i) {
    call(i, [this, i] { procs_[i]->node->start(); });
  }
}

Status LiveCluster::open() {
  if (opened_) {
    // Check before constructing the executor: replacing own_executor_ on a
    // running cluster would tear down the live workers mid-misuse.
    return Status::error(Errc::invalid_argument,
                         "LiveCluster::open() called twice");
  }
  net::Executor::Options ex_options;
  ex_options.num_workers = options_.num_workers;
  own_executor_ = std::make_unique<net::Executor>(ex_options);
  if (Status st = prepare(*own_executor_); !st.ok()) return st;
  if (Status st = own_executor_->start(); !st.ok()) return st;
  launch();
  return Status::ok_status();
}

void LiveCluster::stop() {
  if (!running_) return;
  // Executor::stop joins the workers, then closes every member transport's
  // inbox (running what was already accepted) — so a stop racing posted
  // work does not strand it, and later post() calls fail fast.
  executor_->stop();
  running_ = false;
}

void LiveCluster::call(std::size_t index, std::function<void()> fn) {
  EVS_ASSERT(index < procs_.size());
  if (!running_) {
    // Loops are gone; nothing to race with.
    fn();
    return;
  }
  std::promise<void> done;
  std::future<void> waiter = done.get_future();
  const bool posted = procs_[index]->transport->post([&fn, &done] {
    fn();
    done.set_value();
  });
  if (!posted) {
    // Lost the race against a concurrent stop(): the inbox closed, which
    // means the workers have joined — running inline is as safe as the
    // !running_ path above, and waiting on the promise would deadlock.
    fn();
    return;
  }
  waiter.wait();
}

Expected<MsgId> LiveCluster::send(std::size_t index, Service service,
                                  std::vector<std::uint8_t> payload) {
  Expected<MsgId> result{Errc::not_running, "send before open()"};
  call(index, [&] {
    result = procs_[index]->node->send(service, std::move(payload));
  });
  return result;
}

void LiveCluster::send_async(std::size_t index, Service service,
                             std::vector<std::uint8_t> payload) {
  EVS_ASSERT(index < procs_.size());
  Proc* p = procs_[index].get();
  // Fire-and-forget: a post rejected by a closed inbox (stop race) is a
  // dropped send, counted by the transport — acceptable for async callers.
  (void)p->transport->post([p, service, payload = std::move(payload)]() mutable {
    (void)p->node->send(service, std::move(payload));
  });
}

Expected<std::vector<MsgId>> LiveCluster::send_batch(
    std::size_t index, Service service,
    std::vector<std::vector<std::uint8_t>> payloads) {
  Expected<std::vector<MsgId>> result{Errc::not_running, "send before open()"};
  call(index, [&] {
    result = procs_[index]->node->send_batch(service, std::move(payloads));
  });
  return result;
}

void LiveCluster::send_async_batch(std::size_t index, Service service,
                                   std::vector<std::vector<std::uint8_t>> payloads) {
  EVS_ASSERT(index < procs_.size());
  Proc* p = procs_[index].get();
  (void)p->transport->post([p, service, payloads = std::move(payloads)]() mutable {
    (void)p->node->send_batch(service, std::move(payloads));
  });
}

LiveCluster::NodeSample LiveCluster::sample(std::size_t index) {
  NodeSample s;
  call(index, [&] {
    const EvsNode& n = *procs_[index]->node;
    s.state = n.state();
    s.config = n.config();
    const EvsNode::Stats st = n.stats();
    s.delivered = st.delivered;
    s.sent = st.sent;
    s.pending_sends = n.pending_sends();
  });
  return s;
}

void LiveCluster::partition(const std::vector<std::vector<std::size_t>>& groups) {
  // Unlisted processes land in singleton groups after the listed ones.
  group_of_.assign(procs_.size(), SIZE_MAX);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (std::size_t idx : groups[g]) {
      EVS_ASSERT(idx < procs_.size());
      group_of_[idx] = g;
    }
  }
  std::size_t next = groups.size();
  for (auto& g : group_of_) {
    if (g == SIZE_MAX) g = next++;
  }
  for (std::size_t i = 0; i < procs_.size(); ++i) {
    call(i, [this, i] {
      for (std::size_t j = 0; j < procs_.size(); ++j) {
        if (group_of_[i] == group_of_[j]) {
          procs_[i]->transport->unblock_peer(procs_[j]->pid);
        } else {
          procs_[i]->transport->block_peer(procs_[j]->pid);
        }
      }
    });
  }
}

void LiveCluster::heal() {
  group_of_.assign(procs_.size(), 0);
  for (std::size_t i = 0; i < procs_.size(); ++i) {
    call(i, [this, i] {
      for (auto& other : procs_) procs_[i]->transport->unblock_peer(other->pid);
    });
  }
}

bool LiveCluster::await(const std::function<bool()>& predicate,
                        SimTime max_wait_us, SimTime poll_interval_us) {
  const SimTime deadline = wall_us() + max_wait_us;
  while (true) {
    if (predicate()) return true;
    if (wall_us() >= deadline) return false;
    sleep_us(poll_interval_us);
  }
}

bool LiveCluster::stable() {
  std::vector<NodeSample> samples;
  samples.reserve(procs_.size());
  for (std::size_t i = 0; i < procs_.size(); ++i) samples.push_back(sample(i));
  for (std::size_t i = 0; i < procs_.size(); ++i) {
    if (samples[i].state != EvsNode::State::Operational) return false;
    std::vector<ProcessId> expected;
    for (std::size_t j = 0; j < procs_.size(); ++j) {
      if (group_of_[j] == group_of_[i]) expected.push_back(procs_[j]->pid);
    }
    if (samples[i].config.members != expected) return false;
    for (std::size_t j = 0; j < procs_.size(); ++j) {
      if (group_of_[j] == group_of_[i] &&
          !(samples[j].config.id == samples[i].config.id)) {
        return false;
      }
    }
  }
  return true;
}

bool LiveCluster::await_stable(SimTime max_wait_us) {
  return await([this] { return stable(); }, max_wait_us);
}

bool LiveCluster::await_quiesce(SimTime max_wait_us) {
  const SimTime deadline = wall_us() + max_wait_us;
  if (!await_stable(max_wait_us)) return false;
  auto totals = [this] {
    std::uint64_t delivered = 0;
    std::uint64_t pending = 0;
    for (std::size_t i = 0; i < procs_.size(); ++i) {
      const NodeSample s = sample(i);
      delivered += s.delivered;
      pending += s.pending_sends;
    }
    return std::pair{delivered, pending};
  };
  auto [prev_delivered, prev_pending] = totals();
  // Quiesce = no delivery progress across a settle window AND all send
  // queues empty. The window must outlast a token rotation.
  const SimTime settle_us = 100'000;
  SimTime settled_since = wall_us();
  while (wall_us() < deadline) {
    sleep_us(10'000);
    auto [delivered, pending] = totals();
    if (delivered != prev_delivered || pending != 0) {
      prev_delivered = delivered;
      settled_since = wall_us();
    } else if (wall_us() - settled_since >= settle_us) {
      return true;
    }
    prev_pending = pending;
  }
  return false;
}

std::uint64_t LiveCluster::total_delivered() const {
  std::uint64_t total = 0;
  for (const auto& proc : procs_) {
    total += proc->delivered.load(std::memory_order_relaxed);
  }
  return total;
}

const LiveCluster::Sink& LiveCluster::sink(std::size_t index) const {
  EVS_ASSERT(index < procs_.size());
  EVS_ASSERT_MSG(!running_, "read sinks after stop(), or via call()");
  return procs_[index]->sink;
}

UdpTransport& LiveCluster::transport(std::size_t index) {
  EVS_ASSERT(index < procs_.size());
  return *procs_[index]->transport;
}

EvsNode& LiveCluster::node(std::size_t index) {
  EVS_ASSERT(index < procs_.size());
  EVS_ASSERT(procs_[index]->node != nullptr);
  return *procs_[index]->node;
}

TraceLog LiveCluster::merged_trace() const {
  EVS_ASSERT_MSG(!running_, "merge traces after stop()");
  TraceLog merged;
  // Append node by node: each node records only its own process's events,
  // so per-process program order — all the checker relies on — survives any
  // interleaving across processes.
  for (const auto& proc : procs_) {
    for (const TraceEvent& e : proc->trace->events()) merged.record(e);
  }
  return merged;
}

std::vector<Violation> LiveCluster::check(bool quiescent) const {
  const TraceLog merged = merged_trace();
  SpecChecker checker(merged, SpecChecker::Options{quiescent});
  return checker.check_all();
}

std::string LiveCluster::check_report(bool quiescent) const {
  std::string out;
  for (const Violation& v : check(quiescent)) {
    out += "Spec " + v.spec + ": " + v.detail + "\n";
  }
  return out;
}

obs::MetricsRegistry LiveCluster::aggregate_metrics() const {
  EVS_ASSERT_MSG(!running_, "aggregate metrics after stop()");
  obs::MetricsRegistry agg;
  for (const auto& proc : procs_) {
    if (proc->node != nullptr) agg.merge_from(proc->node->metrics());
    agg.merge_from(proc->store->metrics());
    agg.merge_from(proc->transport->metrics());
  }
  // A shared executor (prepare()/launch() path) is aggregated once by
  // whoever owns it, not once per shard.
  if (own_executor_ != nullptr) agg.merge_from(own_executor_->metrics());
  return agg;
}

}  // namespace evs
