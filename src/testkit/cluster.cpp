#include "testkit/cluster.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "util/assert.hpp"
#include "util/log.hpp"

namespace evs {

std::vector<MsgId> Cluster::Sink::delivered_ids() const {
  std::vector<MsgId> out;
  out.reserve(deliveries.size());
  for (const auto& d : deliveries) out.push_back(d.id);
  return out;
}

bool Cluster::Sink::delivered(const MsgId& m) const { return find(m) != nullptr; }

const EvsNode::Delivery* Cluster::Sink::find(const MsgId& m) const {
  for (const auto& d : deliveries) {
    if (d.id == m) return &d;
  }
  return nullptr;
}

Cluster::Cluster(Options options)
    : options_(options), rng_(options.seed) {
  network_ = std::make_unique<Network>(scheduler_, rng_.split(), options_.net);
  if (!options_.faults.empty()) network_->set_fault_plan(options_.faults);
  if (options_.enable_spans) spans_ = std::make_unique<obs::SpanSink>();
  Log::set_time_source([this] { return scheduler_.now(); });
  procs_.reserve(options_.num_processes);
  for (std::size_t i = 0; i < options_.num_processes; ++i) {
    Proc proc;
    proc.pid = ProcessId{static_cast<std::uint32_t>(i + 1)};
    proc.store = std::make_unique<StableStore>();
    // Route every record append through the network's fault injector (when
    // a plan with storage rules is installed), so disk and network faults
    // draw from one deterministic seeded stream.
    proc.store->set_fault_hook(
        [this, pid = proc.pid](std::size_t record_bytes) {
          FaultInjector* inj = network_->faults_mutable();
          if (inj == nullptr) return StableStore::WriteFault{};
          return inj->apply_storage(pid, scheduler_.now(), record_bytes);
        });
    procs_.push_back(std::move(proc));
  }
  if (options_.auto_start) start_all();
}

ProcessId Cluster::pid(std::size_t index) const {
  EVS_ASSERT(index < procs_.size());
  return procs_[index].pid;
}

std::vector<ProcessId> Cluster::pids() const {
  std::vector<ProcessId> out;
  for (const auto& proc : procs_) out.push_back(proc.pid);
  return out;
}

EvsNode& Cluster::node(std::size_t index) {
  EVS_ASSERT(index < procs_.size() && procs_[index].node != nullptr);
  return *procs_[index].node;
}

EvsNode& Cluster::node(ProcessId p) { return node(p.value - 1); }

Cluster::Sink& Cluster::sink(std::size_t index) {
  EVS_ASSERT(index < procs_.size());
  return procs_[index].sink;
}

Cluster::Sink& Cluster::sink(ProcessId p) { return sink(p.value - 1); }

StableStore& Cluster::store(ProcessId p) {
  EVS_ASSERT(p.value >= 1 && p.value <= procs_.size());
  return *procs_[p.value - 1].store;
}

void Cluster::wire(Proc& proc) {
  Sink* sink = &proc.sink;
  // Owned Delivery records keep the tests' value-semantics assertions; the
  // adapter sits on the node's one zero-copy batch slot, so every sim run
  // still exercises the hot path.
  proc.node->set_on_deliver(
      [sink](const EvsNode::Delivery& d) { sink->deliveries.push_back(d); });
  proc.node->set_on_config_change(
      [sink](const Configuration& c) { sink->configs.push_back(c); });
  proc.node->set_span_sink(spans_.get());
}

void Cluster::start_all() {
  for (auto& proc : procs_) {
    if (proc.node == nullptr) {
      const Status st = start(proc.pid);
      // A fail-stopped boot (storage fault during the boot persist) is a
      // legitimate simulated outcome, not a harness bug: the process is left
      // crashed and recover() can retry it once the fault plan allows.
      EVS_ASSERT_MSG(st.ok() || st.code() == Errc::storage_io,
                     st.message().c_str());
    }
  }
}

Status Cluster::valid_pid(ProcessId p) const {
  if (p.value < 1 || p.value > procs_.size()) {
    return Status::error(Errc::invalid_argument, "unknown process id");
  }
  return Status{};
}

Status Cluster::start(ProcessId p) {
  if (Status st = valid_pid(p); !st.ok()) return st;
  Proc& proc = procs_[p.value - 1];
  if (proc.node != nullptr && proc.node->running()) {
    return Status::error(Errc::invalid_argument, "start() on a running process");
  }
  proc.node = std::make_unique<EvsNode>(p, *network_, *proc.store, &trace_,
                                        options_.node);
  wire(proc);
  proc.node->start();
  if (!proc.node->running()) {
    // The boot's own persistence failed and tore the partial start down.
    return Status::error(Errc::storage_io, "boot persistence failed; fail-stopped");
  }
  return Status{};
}

Status Cluster::crash(ProcessId p) {
  if (Status st = valid_pid(p); !st.ok()) return st;
  Proc& proc = procs_[p.value - 1];
  if (proc.node == nullptr || !proc.node->running()) {
    return Status::error(Errc::invalid_argument,
                         "crash() on a process that is not running");
  }
  proc.node->crash();
  // The machine died with the process: volatile store state is gone too.
  // An armed-but-untripped crash point dies with the incarnation.
  proc.store->disarm_write_budget();
  proc.store->crash();
  return Status{};
}

Status Cluster::recover(ProcessId p) {
  if (Status st = valid_pid(p); !st.ok()) return st;
  Proc& proc = procs_[p.value - 1];
  if (proc.node == nullptr) {
    return Status::error(Errc::invalid_argument, "recover() before any start()");
  }
  if (proc.node->running()) {
    return Status::error(Errc::invalid_argument, "recover() on a running process");
  }
  // Reboot order: replay and repair the durable log (truncate a torn tail,
  // quarantine corrupt records), then boot the fresh incarnation on it.
  const StableStore::OpenReport report = proc.store->open();
  if (report.repaired()) {
    EVS_INFO("testkit", "%s store repaired on recovery: %zu torn, %zu corrupt",
             to_string(p).c_str(), report.torn_truncated,
             report.corrupt_quarantined);
  }
  return start(p);
}

Status Cluster::arm_crash_point(ProcessId p, std::uint64_t nth_write,
                                StableStore::TailFault variant) {
  if (Status st = valid_pid(p); !st.ok()) return st;
  Proc& proc = procs_[p.value - 1];
  proc.store->arm_write_budget(nth_write, variant, [this, p] {
    // Crash *after* the event containing the write completes: +0 schedules
    // ahead of every packet delivery (Network::Options::min_delay_us > 0),
    // so nothing else of the protocol runs first. Re-entering the store
    // from this callback is forbidden; scheduling is all it does.
    scheduler_.schedule_after(0, [this, p] { (void)crash(p); });
  });
  return Status{};
}

std::uint64_t Cluster::store_writes(ProcessId p) const {
  EVS_ASSERT(p.value >= 1 && p.value <= procs_.size());
  return procs_[p.value - 1].store->appends_attempted();
}

void Cluster::partition(const std::vector<std::vector<std::size_t>>& groups) {
  std::vector<std::vector<ProcessId>> components;
  for (const auto& group : groups) {
    std::vector<ProcessId> component;
    for (std::size_t index : group) component.push_back(pid(index));
    components.push_back(std::move(component));
  }
  network_->set_components(components);
}

void Cluster::heal() { network_->merge_all(); }

void Cluster::watchdog_fire() {
  // Fail fast: no token handled, nothing delivered, no membership activity
  // at any running node for a whole watchdog window. Waiting out the
  // deadline would only hide where the cluster got stuck. One snapshot
  // feeds both outputs: the human report in the warning, and — when
  // EVS_OBS_OUT names a file — the machine-readable "evs.obs.snapshot"
  // document for postmortem tooling.
  watchdog_tripped_ = true;
  const ClusterSnapshot snap = snapshot();
  EVS_WARN("testkit", "liveness watchdog: no protocol progress for %llu us\n%s",
           static_cast<unsigned long long>(options_.watchdog_window_us),
           snap.to_text().c_str());
  if (const char* path = std::getenv("EVS_OBS_OUT");
      path != nullptr && *path != '\0') {
    if (std::FILE* f = std::fopen(path, "w")) {
      const std::string doc = snap.to_json();
      std::fwrite(doc.data(), 1, doc.size(), f);
      std::fputc('\n', f);
      std::fclose(f);
    }
  }
}

std::uint64_t Cluster::progress_signature() const {
  std::uint64_t sig = 0;
  for (const auto& proc : procs_) {
    if (proc.node == nullptr || !proc.node->running()) continue;
    const auto& s = proc.node->stats();
    sig += s.delivered + s.conf_changes + s.tokens_handled + s.gathers +
           s.recoveries + s.sent;
  }
  return sig;
}

const EvsNode* Cluster::node_ptr(std::size_t index) const {
  EVS_ASSERT(index < procs_.size());
  return procs_[index].node.get();
}

bool Cluster::await(const std::function<bool()>& predicate, SimTime max_wait_us,
                    SimTime step_us) {
  const SimTime deadline = scheduler_.now() + max_wait_us;
  std::uint64_t sig = progress_signature();
  SimTime last_progress = scheduler_.now();
  while (scheduler_.now() < deadline) {
    if (predicate()) return true;
    scheduler_.run_for(step_us);
    if (options_.watchdog_window_us > 0) {
      const std::uint64_t now_sig = progress_signature();
      if (now_sig != sig) {
        sig = now_sig;
        last_progress = scheduler_.now();
      } else if (scheduler_.now() - last_progress >= options_.watchdog_window_us) {
        watchdog_fire();
        return false;
      }
    }
  }
  return predicate();
}

bool Cluster::stable() const {
  for (const auto& proc : procs_) {
    if (proc.node == nullptr || !proc.node->running()) continue;
    if (proc.node->state() != EvsNode::State::Operational) return false;
    // The node's configuration must contain exactly the running processes
    // of its network component, and all of them must agree on it.
    const auto component = network_->component_of(proc.pid);
    std::vector<ProcessId> running;
    for (ProcessId q : component) {
      const auto& other = procs_[q.value - 1];
      if (other.node != nullptr && other.node->running()) running.push_back(q);
    }
    if (proc.node->config().members != running) return false;
    for (ProcessId q : running) {
      const auto& other = procs_[q.value - 1];
      if (other.node->state() != EvsNode::State::Operational) return false;
      if (!(other.node->config().id == proc.node->config().id)) return false;
    }
  }
  return true;
}

bool Cluster::await_stable(SimTime max_wait_us) {
  return await([this] { return stable(); }, max_wait_us, 1'000);
}

bool Cluster::await_quiesce(SimTime max_wait_us) {
  const SimTime deadline = scheduler_.now() + max_wait_us;
  if (!await_stable(max_wait_us)) return false;
  auto totals = [this] {
    std::uint64_t delivered = 0;
    std::uint64_t pending = 0;
    for (const auto& proc : procs_) {
      if (proc.node == nullptr) continue;
      delivered += proc.node->stats().delivered;
      pending += proc.node->pending_sends();
    }
    return std::pair{delivered, pending};
  };
  std::uint64_t sig = progress_signature();
  SimTime last_progress = scheduler_.now();
  while (scheduler_.now() < deadline) {
    const auto before = totals();
    scheduler_.run_for(20'000);
    const auto after = totals();
    if (stable() && after.second == 0 && after.first == before.first) return true;
    if (options_.watchdog_window_us > 0) {
      const std::uint64_t now_sig = progress_signature();
      if (now_sig != sig) {
        sig = now_sig;
        last_progress = scheduler_.now();
      } else if (scheduler_.now() - last_progress >= options_.watchdog_window_us) {
        watchdog_fire();
        return false;
      }
    }
  }
  return false;
}

ClusterSnapshot Cluster::snapshot() const {
  ClusterSnapshot snap;
  snap.time_us = scheduler_.now();
  snap.nodes.reserve(procs_.size());
  for (const auto& proc : procs_) {
    ClusterSnapshot::Node n;
    n.pid = proc.pid;
    if (proc.node != nullptr) {
      n.started = true;
      n.running = proc.node->running();
      n.state = to_string(proc.node->state());
      n.config = to_string(proc.node->config().id);
      n.pending_sends = proc.node->pending_sends();
      n.metrics = proc.node->metrics();
      n.metrics.merge_from(proc.store->metrics());
      n.metrics.gauge("evs.pending_sends")
          .set(static_cast<std::int64_t>(n.pending_sends));
    }
    snap.nodes.push_back(std::move(n));
  }
  snap.network = network_->metrics();
  for (const auto& n : snap.nodes) snap.aggregate.merge_from(n.metrics);
  for (const auto& proc : procs_) {
    // Stores of never-started processes still carry the storage.* counters
    // the snapshot schema requires in the aggregate.
    if (proc.node == nullptr) snap.aggregate.merge_from(proc.store->metrics());
  }
  snap.aggregate.merge_from(snap.network);
  if (const FaultInjector* inj = network_->faults()) {
    snap.have_injector = true;
    snap.faults = inj->stats();
    snap.fault_log = inj->format_log();
  }
  return snap;
}

obs::MetricsRegistry Cluster::aggregate_metrics() const {
  obs::MetricsRegistry agg;
  for (const auto& proc : procs_) {
    if (proc.node != nullptr) agg.merge_from(proc.node->metrics());
    agg.merge_from(proc.store->metrics());
  }
  agg.merge_from(network_->metrics());
  return agg;
}

std::vector<Violation> Cluster::check(bool quiescent) const {
  SpecChecker checker(trace_, SpecChecker::Options{quiescent});
  return checker.check_all();
}

std::string Cluster::check_report(bool quiescent) const {
  std::string out;
  for (const Violation& v : check(quiescent)) {
    out += "[spec " + v.spec + "] " + v.detail + "\n";
  }
  return out;
}

}  // namespace evs
