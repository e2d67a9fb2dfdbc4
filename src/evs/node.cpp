#include "evs/node.hpp"

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>

#include "util/assert.hpp"
#include "util/log.hpp"
#include "wire/codec.hpp"

namespace evs {
namespace {

constexpr const char* kKeyRingSeq = "ring_seq";
constexpr const char* kKeyIncarnation = "incarnation";
constexpr const char* kKeyLastReg = "last_reg";
constexpr const char* kKeyBacklogMeta = "backlog_meta";
constexpr const char* kKeyDeliveredMeta = "delivered_meta";
constexpr const char* kMsgPrefix = "bmsg/";

/// How long a member stays awake (Transport::expect_traffic) after a
/// TokenHoldCancel wakes its ring: about the rotation that stamps the new
/// message and the two that make it safe, whose every hop would otherwise
/// wake a sleeping worker. Measured on a 4-vCPU VM (kv_ycsb_b_partition,
/// 8 s runs): commit p50 276-295 us without it, 220-238 us with it, and
/// 204-233 us when idle tokens never stop.
constexpr SimTime kWakeWindowUs = 300;

std::vector<ProcessId> with_member(std::vector<ProcessId> v, ProcessId p) {
  if (!std::binary_search(v.begin(), v.end(), p)) {
    v.insert(std::upper_bound(v.begin(), v.end(), p), p);
  }
  return v;
}

/// Non-owning view over an owned message (owner == nullptr): valid only
/// while `m` is — used for the synchronous recovery-time delivery calls,
/// where old_msgs_ outlives the callback.
RegularMsgView borrow_view(const RegularMsg& m) {
  RegularMsgView v;
  v.ring = m.ring;
  v.seq = m.seq;
  v.id = m.id;
  v.service = m.service;
  v.payload = std::span<const std::uint8_t>(m.payload);
  return v;
}

}  // namespace

/// Backlog keys are scoped by ring and use fixed-width zero-padded hex for
/// every numeric component. Both properties are load-bearing for prefix
/// operations: "bmsg/<ring 1>/" must never be a string prefix of
/// "bmsg/<ring 16>/" (variable-width "1" vs "10" would collide), and the
/// ring scope lets recovery distinguish the backlog of the last regular
/// configuration from stale records that survived a crash mid-GC.
std::string backlog_prefix(const RingId& ring) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%s%016llx.%08lx/", kMsgPrefix,
                static_cast<unsigned long long>(ring.seq),
                static_cast<unsigned long>(ring.rep.value));
  return buf;
}

std::string backlog_msg_key(const RingId& ring, SeqNum seq) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(seq));
  return backlog_prefix(ring) + buf;
}

const char* to_string(EvsNode::State s) {
  switch (s) {
    case EvsNode::State::Down: return "Down";
    case EvsNode::State::Operational: return "Operational";
    case EvsNode::State::Gather: return "Gather";
    case EvsNode::State::Recovery: return "Recovery";
  }
  return "?";
}

Status EvsNode::Options::validate() const {
  const auto fail = [](const char* rule) {
    return Status::error(Errc::invalid_options, rule);
  };
  if (token_loss_timeout_us == 0) return fail("token_loss_timeout_us must be positive");
  if (beacon_interval_us == 0) return fail("beacon_interval_us must be positive");
  if (join_interval_us == 0) return fail("join_interval_us must be positive");
  if (gather_fail_timeout_us == 0)
    return fail("gather_fail_timeout_us must be positive");
  if (consensus_wait_timeout_us == 0)
    return fail("consensus_wait_timeout_us must be positive");
  if (exchange_interval_us == 0) return fail("exchange_interval_us must be positive");
  if (recovery_timeout_us == 0) return fail("recovery_timeout_us must be positive");
  if (token_retransmit_interval_us == 0)
    return fail("token_retransmit_interval_us must be positive");
  if (token_retransmit_limit < 0)
    return fail("token_retransmit_limit must be non-negative");
  if (static_cast<SimTime>(token_retransmit_limit) * token_retransmit_interval_us >=
      token_loss_timeout_us) {
    // Otherwise the retransmit guard is still resending a dead token when
    // the loss timer fires, and the gather it triggers races the resends.
    return fail(
        "token_retransmit_limit * token_retransmit_interval_us must stay "
        "below token_loss_timeout_us");
  }
  if (static_cast<SimTime>(token_retransmit_limit) * token_retransmit_per_member_us >
      token_loss_per_member_us) {
    // The same rule must hold at every ring size n: the burst and the loss
    // timeout both grow linearly in n, so bounding the flat terms (above)
    // and the slopes (here) bounds every effective combination.
    return fail(
        "token_retransmit_limit * token_retransmit_per_member_us must not "
        "exceed token_loss_per_member_us");
  }
  if (token_hold_for(1) == 0) {
    // The hold is half the token retransmit interval (half the token loss
    // timeout without retransmission); the slopes only lengthen it.
    return fail(
        "token hold (half of token_retransmit_interval_us, or of "
        "token_loss_timeout_us when token_retransmit_limit is 0) must be positive");
  }
  if (join_interval_us >= gather_fail_timeout_us) {
    // A candidate must get several join broadcasts before it is failed for
    // silence, or every gather immediately shrinks to a singleton.
    return fail("join_interval_us must stay below gather_fail_timeout_us");
  }
  if (exchange_interval_us >= recovery_timeout_us)
    return fail("exchange_interval_us must stay below recovery_timeout_us");
  if (max_payload_bytes == 0) return fail("max_payload_bytes must be positive");
  if (max_payload_bytes > wire::kMaxFrameBody - 4096)
    return fail("max_payload_bytes leaves no frame headroom below kMaxFrameBody");
  if (ordering.max_new_per_token <= 0)
    return fail("ordering.max_new_per_token must be positive");
  if (ordering.max_retransmit_per_token < 0)
    return fail("ordering.max_retransmit_per_token must be non-negative");
  if (ordering.max_rtr_entries == 0)
    return fail("ordering.max_rtr_entries must be positive");
  if (ordering.max_rtr_entries > kMaxTokenRtr) {
    // Otherwise we would emit tokens our own codec rejects (kMaxTokenRtr is
    // the decode-side cardinality bound).
    return fail("ordering.max_rtr_entries must not exceed kMaxTokenRtr");
  }
  if (ordering.flow_control_window <
      static_cast<std::uint32_t>(ordering.max_new_per_token)) {
    return fail("ordering.flow_control_window must be >= max_new_per_token");
  }
  if (max_pending_sends == 0) return fail("max_pending_sends must be positive");
  if (batch_max_frames < 1) return fail("batch_max_frames must be at least 1");
  if (batch_max_bytes == 0) return fail("batch_max_bytes must be positive");
  return Status{};
}

EvsNode::Options EvsNode::Options::scaled_for(std::size_t n) {
  Options o;
  if (n <= 8) return o;  // the defaults (plus the slopes) already cover small rings
  // Dilate every periodic sender interval by ceil(n / 8) so the per-sim-second
  // broadcast volume stays O(n) packets cluster-wide instead of O(n) per node
  // (O(n^2) total): beacons, join floods and exchange rebroadcasts are each
  // "every member broadcasts every interval". The flat timeout bases stretch
  // by the same factor, which keeps every validate() ratio (retransmit burst
  // below token loss, join tick below gather fail, exchange tick below
  // recovery) exactly as it is in the default profile. The per-member slopes
  // are untouched: they model per-round cost growth, the dilation models
  // round *frequency*. See DESIGN.md "Timer scaling".
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

EvsNode::Met::Met(obs::MetricsRegistry& r)
    : sent(r.counter("evs.sent")),
      delivered(r.counter("evs.delivered")),
      delivered_transitional(r.counter("evs.delivered_transitional")),
      conf_changes(r.counter("evs.conf_changes")),
      gathers(r.counter("evs.gathers")),
      recoveries(r.counter("evs.recoveries")),
      discarded(r.counter("evs.discarded")),
      tokens_handled(r.counter("evs.tokens_handled")),
      rejected_frames(r.counter("evs.rejected_frames")),
      rejected_decode(r.counter("evs.rejected_decode")),
      stale_rejected(r.counter("evs.stale_rejected")),
      duplicate_regulars(r.counter("evs.duplicate_regulars")),
      stale_tokens(r.counter("evs.stale_tokens")),
      token_retransmits(r.counter("evs.token_retransmits")),
      send_errors(r.counter("evs.send_errors")),
      backpressure_rejections(r.counter("evs.backpressure_rejections")),
      datagrams_packed(r.counter("net.datagrams_packed")),
      storage_fail_stops(r.counter("evs.storage_fail_stops")),
      persist_retries(r.counter("evs.persist_retries")),
      state_fail_stops(r.counter("evs.state_fail_stops")),
      ring_seq_repairs(r.counter("evs.ring_seq_repairs")),
      token_holds(r.counter("evs.token_holds")),
      token_hold_cancels(r.counter("evs.token_hold_cancels")),
      pending_sends(r.gauge("evs.pending_sends")),
      gather_us(r.histogram("evs.gather_us")),
      recovery_us(r.histogram("evs.recovery_us")),
      token_rotation_us(r.histogram("evs.token_rotation_us")),
      deliver_batch_size(r.histogram("evs.deliver_batch_size")) {}

EvsNode::Stats EvsNode::stats() const {
  Stats s;
  s.sent = met_.sent.value();
  s.delivered = met_.delivered.value();
  s.delivered_transitional = met_.delivered_transitional.value();
  s.conf_changes = met_.conf_changes.value();
  s.gathers = met_.gathers.value();
  s.recoveries = met_.recoveries.value();
  s.discarded = met_.discarded.value();
  s.tokens_handled = met_.tokens_handled.value();
  s.rejected_frames = met_.rejected_frames.value();
  s.rejected_decode = met_.rejected_decode.value();
  s.stale_rejected = met_.stale_rejected.value();
  s.duplicate_regulars = met_.duplicate_regulars.value();
  s.stale_tokens = met_.stale_tokens.value();
  s.token_retransmits = met_.token_retransmits.value();
  s.send_errors = met_.send_errors.value();
  s.backpressure_rejections = met_.backpressure_rejections.value();
  s.datagrams_packed = met_.datagrams_packed.value();
  s.storage_fail_stops = met_.storage_fail_stops.value();
  s.persist_retries = met_.persist_retries.value();
  s.state_fail_stops = met_.state_fail_stops.value();
  s.ring_seq_repairs = met_.ring_seq_repairs.value();
  return s;
}

void EvsNode::note_frame_reject(Errc cause) {
  met_.rejected_frames.inc();
  // Cold path: the per-cause lookup builds a name, which is fine here.
  metrics_.counter(std::string("evs.rejected_frames.") + to_string(cause)).inc();
}

void EvsNode::span_end(obs::SpanId& id) {
  if (spans_ != nullptr && id != 0) spans_->end(id, net_.scheduler().now());
  id = 0;
}

void EvsNode::close_episode_spans() {
  span_end(rebroadcast_span_);
  span_end(exchange_span_);
  span_end(recovery_span_);
  span_end(gather_span_);
  span_end(rotation_span_);
  span_end(hold_span_);
}

EvsNode::EvsNode(ProcessId id, Transport& net, StableStore& store, TraceLog* trace,
                 Options options)
    : self_(id), net_(net), store_(store), trace_(trace), opts_(options) {
  const Status valid = opts_.validate();
  EVS_ASSERT_MSG(valid.ok(), valid.message().c_str());
  if (opts_.faults.skip_safe_horizon) opts_.ordering.deliver_unsafe = true;
  // Pre-create the memory-bound gauges: obs snapshots must carry them (the
  // schema validator checks) even before the first ring install.
  metrics_.gauge("ordering.store_msgs");
  metrics_.gauge("ordering.store_bytes");
  metrics_.gauge("ordering.store_msgs_peak");
  metrics_.gauge("ordering.store_bytes_peak");
}

EvsNode::~EvsNode() {
  // Deliberately not a crash(): destroying a running node without crashing it
  // first is a harness bug we want to surface, except at end of simulation.
  if (state_ != State::Down) net_.detach(self_);
}

// --------------------------------------------------------------------------
// persistence

Status EvsNode::persist_ring_seq() {
  wire::Writer w;
  w.u64(ring_seq_);
  return store_.put(kKeyRingSeq, w.take());
}

Status EvsNode::persist_install(const Configuration& config) {
  // Ordering within the install record sequence: the new last_reg lands
  // first, then the old backlog is reclaimed. A crash between the two
  // leaves a new-ring last_reg next to stale old-ring backlog records —
  // load_persisted() quarantines the mismatched-ring leftovers, so the
  // half-finished GC can only waste space, never resurrect deliveries.
  wire::Writer w;
  encode(w, config.id);
  w.pid_vec(config.members);
  if (Status st = store_.put(kKeyLastReg, w.take()); !st.ok()) return st;
  if (Status st = persist_ring_seq(); !st.ok()) return st;
  if (Status st = store_.erase_prefix(kMsgPrefix); !st.ok()) return st;
  if (Status st = store_.erase(kKeyBacklogMeta); !st.ok()) return st;
  return store_.erase(kKeyDeliveredMeta);
}

Status EvsNode::persist_delivered_meta() {
  // The model lets a process "recover with stable storage intact" whose
  // contents were affected by the order of delivered messages (Section 1).
  // Recording how far delivery progressed is what lets the recovered
  // incarnation place its transitional configuration *after* everything the
  // previous incarnation delivered (Spec 6.1) and avoid redelivery (1.4).
  // Written BEFORE the corresponding application deliveries run
  // (deliver_ready): a crash in between loses deliveries at a process that
  // failed — which Fail-event semantics permit — while the reverse order
  // would redeliver across incarnations, which Spec 1.4 forbids.
  wire::Writer w;
  encode(w, core_->ring());
  w.u64(core_->delivered_upto());
  w.u64(core_->safe_upto());
  return store_.put(kKeyDeliveredMeta, w.take());
}

Status EvsNode::persist_recovery_state() {
  // Step 5.c ordering: messages and the merged obligation set reach stable
  // storage BEFORE the complete-acknowledgment is transmitted. A crash after
  // the ack therefore finds everything the acknowledgment promised. If any
  // record fails to persist, the caller aborts the acknowledgement.
  for (const auto& [seq, m] : old_msgs_) {
    const std::string key = backlog_msg_key(old_ring_, seq);
    if (store_.contains(key)) continue;
    if (Status st = store_.put(key, encode_msg(m)); !st.ok()) return st;
  }
  wire::Writer w;
  encode(w, old_ring_);
  w.u64(old_delivered_upto_);
  w.u64(old_safe_upto_);
  w.seq_set(old_delivered_extra_);
  w.pid_vec(obligation_set_);
  return store_.put(kKeyBacklogMeta, w.take());
}

Status EvsNode::load_persisted() {
  // Recovery-time load is *tolerant*: a crash can land between any two
  // records of a multi-record persist (e.g. after the new last_reg but
  // before the old backlog's GC), so the store legitimately holds records
  // from different epochs. Anything that does not cohere with the newest
  // last_reg — mismatched rings, undecodable bodies — is dropped (and
  // erased best-effort, counted as a storage repair), never asserted on.
  auto quarantine = [this](const std::string& key) {
    store_.metrics().counter("storage.repairs").inc();
    (void)store_.erase(key);  // best-effort cleanup of the stale record
  };

  if (auto blob = store_.get(kKeyRingSeq)) {
    wire::Reader r(*blob);
    const std::uint64_t seq = r.u64();
    if (r.done()) {
      ring_seq_ = seq;
    } else {
      quarantine(kKeyRingSeq);
    }
  }
  std::uint64_t incarnation = 1;
  if (auto blob = store_.get(kKeyIncarnation)) {
    wire::Reader r(*blob);
    const std::uint64_t persisted = r.u64();
    if (r.done()) incarnation = persisted + 1;
  }
  {
    wire::Writer w;
    w.u64(incarnation);
    if (Status st = store_.put(kKeyIncarnation, w.take()); !st.ok()) return st;
  }
  // Message ids must be unique across incarnations of the same process id.
  msg_counter_ = incarnation << 40;

  if (auto blob = store_.get(kKeyLastReg)) {
    wire::Reader r(*blob);
    Configuration cfg;
    cfg.id = decode_config_id(r);
    cfg.members = r.pid_vec();
    if (r.done()) {
      reg_config_ = std::move(cfg);
      old_ring_ = reg_config_.id.ring;
    } else {
      quarantine(kKeyLastReg);
    }
  }
  if (auto blob = store_.get(kKeyBacklogMeta)) {
    wire::Reader r(*blob);
    const RingId meta_ring = decode_ring_id(r);
    const SeqNum delivered = r.u64();
    const SeqNum safe = r.u64();
    SeqSet extra = r.seq_set();
    std::vector<ProcessId> obligations = r.pid_vec();
    if (r.done() && meta_ring == old_ring_) {
      old_delivered_upto_ = delivered;
      old_safe_upto_ = safe;
      old_delivered_extra_ = std::move(extra);
      obligation_set_ = std::move(obligations);
    } else {
      quarantine(kKeyBacklogMeta);  // stale: predates the last install's GC
    }
  }
  if (auto blob = store_.get(kKeyDeliveredMeta)) {
    wire::Reader r(*blob);
    const RingId meta_ring = decode_ring_id(r);
    const SeqNum delivered = r.u64();
    const SeqNum safe = r.u64();
    if (r.done() && meta_ring == old_ring_) {
      old_delivered_upto_ = std::max(old_delivered_upto_, delivered);
      old_safe_upto_ = std::max(old_safe_upto_, safe);
    } else {
      quarantine(kKeyDeliveredMeta);
    }
  }
  const std::string live_prefix =
      old_ring_.valid() ? backlog_prefix(old_ring_) : std::string{};
  for (const std::string& key : store_.keys_with_prefix(kMsgPrefix)) {
    if (live_prefix.empty() || key.compare(0, live_prefix.size(), live_prefix) != 0) {
      quarantine(key);  // backlog of a ring the last install already GC'd
      continue;
    }
    auto msg = try_decode(*store_.get(key));
    const RegularMsg* m =
        msg.has_value() ? std::get_if<RegularMsg>(&*msg) : nullptr;
    if (m == nullptr || !(m->ring == old_ring_)) {
      quarantine(key);
      continue;
    }
    old_received_.insert(m->seq);
    old_msgs_.emplace(m->seq, *m);
  }
  return Status{};
}

// --------------------------------------------------------------------------
// lifecycle

void EvsNode::start() {
  EVS_ASSERT_MSG(state_ == State::Down, "start() on a running node");
  if (Status st = load_persisted(); !st.ok()) {
    // The incarnation counter must be durable before anything else happens:
    // without it, message ids could repeat across incarnations.
    storage_fail_stop("boot incarnation");
    return;
  }
  if (ring_seq_ >= kMaxRingSeq) {
    // A persisted counter at the plausibility ceiling means the store rotted
    // (healthy systems never get near 2^62 installs). Booting with it would
    // broadcast joins every peer's codec rejects.
    protocol_fail_stop("boot ring_seq above kMaxRingSeq");
    return;
  }
  ring_seq_ += 1;
  if (Status st = persist_ring_seq(); !st.ok()) {
    storage_fail_stop("boot ring_seq");
    return;
  }
  const RingId singleton{ring_seq_, self_};
  net_.attach(self_, this);
  if (old_ring_.valid()) {
    // The previous incarnation died holding a backlog (possibly with
    // obligations from an interrupted recovery): resolve it alone, exactly
    // like a recovery whose transitional configuration is {self}.
    recovery_local_plan_and_install(singleton);
  } else {
    install_configuration(singleton, {self_}, nullptr);
  }
  // The install itself persists; its failure tears the partial boot down.
  if (state_ == State::Down) return;
  // Announce presence so existing components notice us and gather.
  broadcast(encode_msg(BeaconMsg{self_, reg_config_.id.ring}));
}

void EvsNode::storage_fail_stop(const char* where) {
  met_.storage_fail_stops.inc();
  EVS_WARN("evs", "%s stable storage failed at %s; fail-stop",
           to_string(self_).c_str(), where);
  if (state_ != State::Down) {
    // A running node that cannot persist becomes a failed process — the
    // failure mode every peer already tolerates (and the trace records as a
    // Fail event). Its next start() replays whatever the store kept.
    crash();
    return;
  }
  // Partial boot: undo whatever start() got through before the write failed.
  // detach() on a never-attached process is a no-op.
  bump_epoch();
  net_.detach(self_);
  core_.reset();
  gather_.reset();
  recovery_.reset();
  my_exchange_.reset();
  pending_.clear();
  met_.pending_sends.set(0);
  new_ring_buffer_.clear();
  buffered_token_.reset();
}

void EvsNode::request_fail_stop(const char* where) {
  if (state_ == State::Down) return;
  schedule_guarded(0, [this, where] {
    if (state_ != State::Down) storage_fail_stop(where);
  });
}

void EvsNode::protocol_fail_stop(const char* what) {
  met_.state_fail_stops.inc();
  EVS_WARN("evs", "%s inconsistent protocol state (%s); fail-stop",
           to_string(self_).c_str(), what);
  if (state_ != State::Down) {
    // Same exit as a failed persist: become a failed process rather than
    // feed corrupted state into the agreed order. Peers detect the silence
    // and reconfigure; our next start() reloads from stable storage.
    crash();
    return;
  }
  // Fail-stop during boot: tear the partial start() down.
  bump_epoch();
  net_.detach(self_);
  core_.reset();
  gather_.reset();
  recovery_.reset();
  my_exchange_.reset();
  pending_.clear();
  met_.pending_sends.set(0);
  new_ring_buffer_.clear();
  buffered_token_.reset();
}

void EvsNode::repair_ring_seq() {
  if (reg_config_.id.ring.valid() && ring_seq_ < reg_config_.id.ring.seq) {
    met_.ring_seq_repairs.inc();
    EVS_WARN("evs", "%s ring_seq regressed below installed ring (%llu < %llu); repaired",
             to_string(self_).c_str(), static_cast<unsigned long long>(ring_seq_),
             static_cast<unsigned long long>(reg_config_.id.ring.seq));
    ring_seq_ = reg_config_.id.ring.seq;
  }
}

bool EvsNode::old_state_consistent() const {
  // Mirrors read_exchange's wire-level invariants on the old-ring snapshot.
  if (old_gc_upto_ > old_delivered_upto_) return false;
  if (old_gc_upto_ > 0 && old_received_.contiguous_from(0) < old_gc_upto_) return false;
  if (!old_ring_.valid() && (old_gc_upto_ != 0 || !old_received_.empty())) return false;
  // Body spot-check at the GC boundary: old_msgs_ holds every received seq
  // above old_gc_upto_, so a regressed watermark claims a reclaimed body is
  // still resident — and the rebroadcast path asserts on that lie.
  if (old_received_.contains(old_gc_upto_ + 1) &&
      old_msgs_.find(old_gc_upto_ + 1) == old_msgs_.end()) {
    return false;
  }
  return true;
}

void EvsNode::recovery_local_plan_and_install(RingId new_ring) {
  const auto lookup = [this](SeqNum s) -> const RegularMsg* {
    auto it = old_msgs_.find(s);
    return it == old_msgs_.end() ? nullptr : &it->second;
  };
  const std::vector<ProcessId> obligations =
      opts_.faults.ignore_obligations ? std::vector<ProcessId>{}
                                      : with_member(obligation_set_, self_);
  Step6Plan plan =
      plan_step6(with_member({}, self_), old_received_, old_safe_upto_, obligations,
                 lookup, old_delivered_upto_, old_delivered_extra_, old_gc_upto_);
  // The previous incarnation failed in the old regular configuration (its
  // Fail event closed it), so this one cannot deliver in it: what step 6.b
  // would deliver there goes to the transitional configuration {self},
  // ahead of 6.d's messages, and the transitional change follows only what
  // the previous incarnation delivered.
  plan.trans_seqs.insert(plan.trans_seqs.begin(), plan.regular_seqs.begin(),
                         plan.regular_seqs.end());
  plan.regular_seqs.clear();
  plan.cutoff = old_delivered_upto_;
  install_configuration(new_ring, {self_}, &plan);
}

void EvsNode::crash() {
  if (state_ == State::Down) return;
  if (trace_ != nullptr && reg_config_.id.valid()) {
    TraceEvent e;
    e.type = EventType::Fail;
    e.process = self_;
    e.time = net_.scheduler().now();
    e.config = reg_config_.id;
    trace_->record(std::move(e));
  }
  bump_epoch();
  net_.scheduler().cancel(token_loss_timer_);
  cancel_token_retransmit();
  drop_held_token("crash");
  close_episode_spans();
  gather_since_ = recovery_since_ = rotation_since_ = 0;
  net_.detach(self_);
  state_ = State::Down;
  core_.reset();
  gather_.reset();
  recovery_.reset();
  my_exchange_.reset();
  pending_.clear();
  backpressured_ = false;  // no drain callback across a crash
  met_.pending_sends.set(0);
  new_ring_buffer_.clear();
  buffered_token_.reset();
}

Expected<MsgId> EvsNode::send(Service service, std::vector<std::uint8_t> payload) {
  if (!running()) {
    met_.send_errors.inc();
    return Status::error(Errc::not_running, "send() on a crashed node");
  }
  if (payload.size() > opts_.max_payload_bytes) {
    met_.send_errors.inc();
    return Status::error(Errc::payload_too_large,
                         "payload exceeds Options::max_payload_bytes");
  }
  if (pending_.size() >= opts_.max_pending_sends) {
    // Fail fast instead of queueing without bound; the application retries
    // after the drain callback (or any later moment of its choosing).
    met_.send_errors.inc();
    met_.backpressure_rejections.inc();
    backpressured_ = true;
    return Status::error(Errc::backpressure,
                         "pending send queue at Options::max_pending_sends");
  }
  MsgId id{self_, ++msg_counter_};
  pending_.push_back(PendingSend{id, service, std::move(payload)});
  note_pending_sends();
  wake_held_ring();
  return id;
}

Expected<std::vector<MsgId>> EvsNode::send_batch(
    Service service, std::vector<std::vector<std::uint8_t>> payloads) {
  if (!running()) {
    met_.send_errors.inc();
    return Status::error(Errc::not_running, "send_batch() on a crashed node");
  }
  // All-or-nothing: validate the whole batch before queueing anything, so a
  // failure never leaves a partial burst in the queue.
  for (const auto& p : payloads) {
    if (p.size() > opts_.max_payload_bytes) {
      met_.send_errors.inc();
      return Status::error(Errc::payload_too_large,
                           "batch payload exceeds Options::max_payload_bytes");
    }
  }
  if (pending_.size() + payloads.size() > opts_.max_pending_sends) {
    met_.send_errors.inc();
    met_.backpressure_rejections.inc();
    backpressured_ = true;
    // A large batch can be rejected while pending_ is already at or below the
    // half-cap mark. The single-send path never faces this (rejection implies
    // pending_ == cap), but here the drain condition may hold at rejection
    // time: run the hysteresis check now so the sender's drain callback does
    // not stall until an unrelated token visit.
    note_pending_sends();
    return Status::error(Errc::backpressure,
                         "batch does not fit under Options::max_pending_sends");
  }
  std::vector<MsgId> ids;
  ids.reserve(payloads.size());
  for (auto& p : payloads) {
    MsgId id{self_, ++msg_counter_};
    pending_.push_back(PendingSend{id, service, std::move(p)});
    ids.push_back(id);
  }
  note_pending_sends();
  wake_held_ring();
  return ids;
}

void EvsNode::note_pending_sends() {
  met_.pending_sends.set(static_cast<std::int64_t>(pending_.size()));
  if (backpressured_ && pending_.size() <= opts_.max_pending_sends / 2) {
    // Half-cap hysteresis: waking producers at cap-minus-one would win them
    // a single accepted send before the next rejection.
    backpressured_ = false;
    if (drain_handler_) drain_handler_();
  }
}

// --------------------------------------------------------------------------
// configuration installation (recovery step 6 — atomic)

void EvsNode::emit_conf_change(const Configuration& config, Ord ord) {
  met_.conf_changes.inc();
  if (!(last_ord_ < ord || met_.conf_changes.value() == 1)) {
    EVS_WARN("evs", "%s conf change ord regressed: last=%s next=%s config=%s",
             to_string(self_).c_str(), to_string(last_ord_).c_str(),
             to_string(ord).c_str(), to_string(config.id).c_str());
  }
  EVS_ASSERT_MSG(last_ord_ < ord || met_.conf_changes.value() == 1,
                 "configuration change ord must advance");
  last_ord_ = ord;
  if (trace_ != nullptr) {
    TraceEvent e;
    e.type = EventType::DeliverConf;
    e.process = self_;
    e.time = net_.scheduler().now();
    e.config = config.id;
    e.members = config.members;
    e.ord = ord;
    trace_->record(std::move(e));
  }
  if (config_handler_) config_handler_(config);
}

void EvsNode::deliver_batch(const std::vector<RegularMsgView>& msgs,
                            const Configuration& config) {
  if (msgs.empty()) return;
  // Zero-copy fan-out: one callback for the whole batch, each view's
  // payload still pinned by the datagram, send buffer or backlog entry it
  // came from.
  std::vector<DeliveryView> views;
  views.reserve(msgs.size());
  for (const RegularMsgView& m : msgs) {
    const Ord ord = ord_message_delivery(m.ring, m.seq);
    met_.delivered.inc();
    if (config.id.transitional) met_.delivered_transitional.inc();
    EVS_ASSERT_MSG(last_ord_ < ord, "delivery ord must advance in program order");
    last_ord_ = ord;
    if (trace_ != nullptr) {
      TraceEvent e;
      e.type = EventType::Deliver;
      e.process = self_;
      e.time = net_.scheduler().now();
      e.msg = m.id;
      e.service = m.service;
      e.seq = m.seq;
      e.config = config.id;
      e.ord = ord;
      trace_->record(std::move(e));
    }
    views.push_back(DeliveryView{m.id, m.service, m.seq, m.payload, &config, ord});
  }
  if (deliver_handler_) deliver_handler_(std::span<const DeliveryView>(views));
}

void EvsNode::set_on_deliver(DeliverHandler h) {
  if (!h) {
    deliver_handler_ = nullptr;
    return;
  }
  deliver_handler_ = [h = std::move(h)](std::span<const DeliveryView> batch) {
    for (const DeliveryView& v : batch) {
      h(Delivery{v.id, v.service, v.seq,
                 std::vector<std::uint8_t>(v.payload.begin(), v.payload.end()),
                 *v.config, v.ord});
    }
  };
}

void EvsNode::install_configuration(RingId new_ring, std::vector<ProcessId> members,
                                    const Step6Plan* plan) {
  bump_epoch();
  EVS_ASSERT(std::is_sorted(members.begin(), members.end()));
  EVS_ASSERT(std::binary_search(members.begin(), members.end(), self_));

  const SimTime install_now = net_.scheduler().now();
  const bool had_trans = plan != nullptr && plan->has_transitional && old_ring_.valid();
  // The recovery episode (steps 3-5) ends here; step 6 is atomic.
  close_episode_spans();
  if (recovery_since_ != 0) met_.recovery_us.record(install_now - recovery_since_);
  gather_since_ = recovery_since_ = rotation_since_ = 0;

  // Persist the install BEFORE any step-6 delivery reaches the application.
  // A crash after the persist recovers into the new configuration having
  // lost the 6.b/6.d deliveries — legal, because the crash is a Fail event
  // and lost deliveries at a failed process are permitted. The reverse order
  // would let a crash redeliver the backlog across incarnations (Spec 1.4)
  // or place the recovered transitional configuration before deliveries the
  // application already observed (Spec 6.1).
  Configuration next;
  next.id = ConfigId::regular(new_ring);
  next.members = members;
  ring_seq_ = std::max(ring_seq_, new_ring.seq);
  if (Status st = persist_install(next); !st.ok()) {
    storage_fail_stop("install");
    return;
  }

  if (had_trans) {
    const auto backlog_views = [this](const std::vector<SeqNum>& seqs) {
      std::vector<RegularMsgView> views;
      views.reserve(seqs.size());
      for (SeqNum s : seqs) {
        auto it = old_msgs_.find(s);
        EVS_ASSERT(it != old_msgs_.end());
        views.push_back(borrow_view(it->second));
      }
      return views;
    };
    // 6.b: remaining old-ring messages that are deliverable in the *old
    // regular* configuration.
    deliver_batch(backlog_views(plan->regular_seqs), reg_config_);
    // 6.c: the transitional configuration change.
    Configuration trans;
    trans.id = ConfigId::trans(old_ring_, new_ring);
    trans.members = plan->trans_members;
    // The transitional configuration change follows everything this process
    // delivered in the old regular configuration — including deliveries of a
    // previous incarnation recorded in stable storage, which can exceed the
    // plan's cutoff when the backlog itself was never persisted. For shared
    // transitional configurations the cutoff already dominates every
    // member's delivered_upto, so this max cannot break Spec 6.2.
    const SeqNum ord_cutoff = std::max(plan->cutoff, old_delivered_upto_);
    emit_conf_change(trans, ord_transitional_conf(old_ring_, ord_cutoff));
    // 6.d: deliveries in the transitional configuration.
    deliver_batch(backlog_views(plan->trans_seqs), trans);
    met_.discarded.inc(plan->discarded.size());
  }

  // 6.e: install the new regular configuration. The node is committed to it
  // before the application learns of it, so a configuration-change handler
  // may immediately send() into the new configuration.
  reg_config_ = next;

  core_.emplace(new_ring, members, self_, opts_.ordering, &metrics_);
  old_ring_ = new_ring;
  old_msgs_.clear();
  old_received_ = SeqSet{};
  old_safe_upto_ = 0;
  old_delivered_upto_ = 0;
  old_gc_upto_ = 0;
  old_delivered_extra_ = SeqSet{};
  obligation_set_.clear();  // step 1: no obligations in a regular configuration

  gather_.reset();
  recovery_.reset();
  my_exchange_.reset();
  acked_complete_ = false;
  hold_cancel_seen_ = hold_cancel_sent_ = false;
  state_ = State::Operational;

  emit_conf_change(next, ord_regular_conf(new_ring));

  if (spans_ != nullptr) {
    const obs::SpanId s = spans_->instant(self_, "config.install", install_now);
    spans_->attr(s, "ring", to_string(new_ring));
    spans_->attr(s, "members", std::to_string(members.size()));
    spans_->attr(s, "transitional", had_trans ? "1" : "0");
    if (had_trans) {
      spans_->attr(s, "regular_deliveries", std::to_string(plan->regular_seqs.size()));
      spans_->attr(s, "trans_deliveries", std::to_string(plan->trans_seqs.size()));
      spans_->attr(s, "discarded", std::to_string(plan->discarded.size()));
    }
  }

  EVS_INFO("evs", "%s installed %s (%zu members)", to_string(self_).c_str(),
           to_string(next.id).c_str(), members.size());

  arm_token_loss_timer();
  const std::uint64_t epoch = epoch_;
  schedule_guarded(opts_.beacon_interval_us, [this, epoch] { beacon_tick(epoch); });

  // Feed packets that arrived for this configuration while we were still
  // finishing recovery (paper step 2 buffering).
  for (const RegularMsg& m : new_ring_buffer_) {
    if (m.ring == new_ring) core_->on_regular(m);
  }
  new_ring_buffer_.clear();
  std::optional<TokenMsg> buffered = std::move(buffered_token_);
  buffered_token_.reset();

  if (new_ring.rep == self_) {
    TokenMsg initial;
    initial.ring = new_ring;
    initial.rotation = 1;
    unicast_frame(self_, encode_msg(initial));
  } else if (buffered.has_value() && buffered->ring == new_ring) {
    handle_token(*buffered);
  }
  deliver_ready();
}

// --------------------------------------------------------------------------
// gather

void EvsNode::snapshot_old_ring() {
  EVS_ASSERT(core_.has_value());
  old_ring_ = core_->ring();
  // all_messages() is the post-GC suffix; old_received_ keeps the full
  // interval summary and old_gc_upto_ records how much of it is body-less.
  for (const RegularMsg& m : core_->all_messages()) old_msgs_.emplace(m.seq, m);
  old_received_.merge(core_->received());
  old_safe_upto_ = std::max(old_safe_upto_, core_->safe_upto());
  old_delivered_upto_ = std::max(old_delivered_upto_, core_->delivered_upto());
  old_gc_upto_ = std::max(old_gc_upto_, core_->gc_upto());
  core_.reset();
}

void EvsNode::enter_gather(std::vector<ProcessId> candidates,
                           const std::vector<ProcessId>* carry_fails) {
  if (state_ == State::Down) return;
  if (state_ == State::Operational) snapshot_old_ring();
  bump_epoch();
  net_.scheduler().cancel(token_loss_timer_);
  cancel_token_retransmit();
  drop_held_token("gather");
  recovery_.reset();
  my_exchange_.reset();
  acked_complete_ = false;
  new_ring_buffer_.clear();
  buffered_token_.reset();

  ++episode_;
  met_.gathers.inc();
  const SimTime now = net_.scheduler().now();
  close_episode_spans();  // a regather abandons any in-flight recovery spans
  gather_since_ = now;
  recovery_since_ = rotation_since_ = 0;
  if (spans_ != nullptr) {
    gather_span_ = spans_->begin(self_, "gather", now);
    spans_->attr(gather_span_, "episode", std::to_string(episode_));
  }
  gather_.emplace(self_, episode_, with_member(std::move(candidates), self_), now,
                  GatherState::Options{opts_.gather_fail_timeout_us,
                                       opts_.gather_fail_per_member_us, &metrics_});
  if (carry_fails != nullptr) gather_->adopt_fail_set(*carry_fails, now);
  consensus_since_ = 0;
  state_ = State::Gather;

  EVS_DEBUG("evs", "%s enters gather (episode %llu)", to_string(self_).c_str(),
            static_cast<unsigned long long>(episode_));

  repair_ring_seq();
  broadcast(encode_msg(gather_->make_join(ring_seq_)));
  const std::uint64_t epoch = epoch_;
  schedule_guarded(opts_.join_interval_us, [this, epoch] { join_tick(epoch); });
}

void EvsNode::join_tick(std::uint64_t epoch) {
  if (epoch != epoch_ || state_ != State::Gather) return;
  const SimTime now = net_.scheduler().now();
  gather_->check_timeouts(now);
  broadcast(encode_msg(gather_->make_join(ring_seq_)));
  maybe_propose();
  if (epoch == epoch_ && state_ == State::Gather) {
    schedule_guarded(opts_.join_interval_us, [this, epoch] { join_tick(epoch); });
  }
}

void EvsNode::maybe_propose() {
  if (!gather_->consensus()) {
    consensus_since_ = 0;
    return;
  }
  const SimTime now = net_.scheduler().now();
  const std::vector<ProcessId> members = gather_->proposed_membership();
  if (gather_->representative() == self_) {
    repair_ring_seq();
    const RingSeq base = std::max(ring_seq_, gather_->max_ring_seq_seen());
    if (base >= kMaxRingSeq) {
      // The counter (ours or a gathered peer's) hit the plausibility
      // ceiling: proposing base + 1 would form a ring every codec rejects.
      // Only corruption gets a counter here; become a failed process.
      protocol_fail_stop("ring_seq at kMaxRingSeq");
      return;
    }
    ring_seq_ = base + 1;
    if (Status st = persist_ring_seq(); !st.ok()) {
      // Proposing a ring seq that might repeat after a crash would violate
      // per-process ring monotonicity; fail-stop instead.
      storage_fail_stop("propose ring_seq");
      return;
    }
    const RingId ring{ring_seq_, self_};
    EVS_DEBUG("evs", "%s proposes %s with %zu members", to_string(self_).c_str(),
              to_string(ring).c_str(), members.size());
    broadcast(encode_msg(FormRingMsg{self_, ring, members}));
    adopt_proposal(ring, members);
  } else if (consensus_since_ == 0) {
    consensus_since_ = now;
  } else if (now - consensus_since_ > opts_.consensus_wait_for(members.size())) {
    // The representative went quiet without proposing; divorce it so the
    // gather can terminate with a smaller membership.
    gather_->adopt_fail_set({gather_->representative()}, now);
    consensus_since_ = 0;
  }
}

// --------------------------------------------------------------------------
// recovery

ExchangeMsg EvsNode::make_exchange() const {
  ExchangeMsg e;
  e.sender = self_;
  e.proposed_ring = recovery_->proposed_ring();
  e.old_ring = old_ring_;
  e.received = old_received_;
  e.old_safe_upto = old_safe_upto_;
  e.delivered_upto = old_delivered_upto_;
  e.delivered_extra = old_delivered_extra_;
  e.gc_upto = old_gc_upto_;
  // Normalize the obligation copy: every peer's codec rejects an exchange
  // whose obligation set is not strictly sorted, and a rejected exchange is
  // re-broadcast forever (cluster-wide recovery livelock). The set's only
  // semantics is membership, so sort+unique loses nothing; a corrupted
  // entry merely adds a pid whose holes step 6 treats conservatively.
  e.obligation_set = obligation_set_;
  std::sort(e.obligation_set.begin(), e.obligation_set.end());
  e.obligation_set.erase(
      std::unique(e.obligation_set.begin(), e.obligation_set.end()),
      e.obligation_set.end());
  return e;
}

void EvsNode::adopt_proposal(RingId ring, std::vector<ProcessId> members) {
  if (!old_state_consistent()) {
    // The old-ring snapshot we are about to freeze into an exchange violates
    // invariants every peer checks at decode: they would silently discard
    // our exchanges and the whole component would spin through recovery
    // timeouts forever. Fail-stop so peers can converge without us.
    protocol_fail_stop("old-ring exchange state");
    return;
  }
  bump_epoch();
  ring_seq_ = std::max(ring_seq_, ring.seq);
  if (Status st = persist_ring_seq(); !st.ok()) {
    storage_fail_stop("adopt ring_seq");
    return;
  }
  state_ = State::Recovery;
  met_.recoveries.inc();

  const SimTime now = net_.scheduler().now();
  const std::size_t member_count = members.size();
  // Re-adopting under a fresh ring id abandons the previous proposal's spans.
  span_end(rebroadcast_span_);
  span_end(exchange_span_);
  span_end(recovery_span_);
  if (gather_since_ != 0) met_.gather_us.record(now - gather_since_);
  gather_since_ = 0;
  recovery_since_ = now;
  if (spans_ != nullptr) {
    if (gather_span_ != 0) {
      spans_->attr(gather_span_, "ring", to_string(ring));
      spans_->attr(gather_span_, "members", std::to_string(member_count));
    }
    span_end(gather_span_);
    recovery_span_ = spans_->begin(self_, "recovery", now);
    spans_->attr(recovery_span_, "ring", to_string(ring));
    spans_->attr(recovery_span_, "members", std::to_string(member_count));
    exchange_span_ = spans_->begin(self_, "recovery.exchange", now, recovery_span_);
  }

  recovery_.emplace(self_, ring, std::move(members));
  my_exchange_ = make_exchange();
  acked_complete_ = false;
  new_ring_buffer_.clear();
  buffered_token_.reset();
  recovery_deadline_ = net_.scheduler().now() + opts_.recovery_for(member_count);

  broadcast(encode_msg(*my_exchange_));
  const std::uint64_t epoch = epoch_;
  schedule_guarded(opts_.exchange_interval_us, [this, epoch] { exchange_tick(epoch); });
}

void EvsNode::exchange_tick(std::uint64_t epoch) {
  if (epoch != epoch_ || state_ != State::Recovery) return;
  const SimTime now = net_.scheduler().now();
  if (now > recovery_deadline_) {
    EVS_WARN("evs", "%s recovery timed out; regathering", to_string(self_).c_str());
    enter_gather(recovery_->members(), nullptr);
    return;
  }
  broadcast(encode_msg(*my_exchange_));
  if (recovery_->proposed_ring().rep == self_) {
    broadcast(encode_msg(
        FormRingMsg{self_, recovery_->proposed_ring(), recovery_->members()}));
  }
  recovery_round();
  if (epoch == epoch_ && state_ == State::Recovery) {
    schedule_guarded(opts_.exchange_interval_us, [this, epoch] { exchange_tick(epoch); });
  }
}

void EvsNode::recovery_round() {
  if (!recovery_->have_all_exchanges()) return;
  if (spans_ != nullptr && exchange_span_ != 0) {
    // Steps 3-4 done: every member's exchange is in, so the transitional
    // membership is known. Step 5 (rebroadcast until complete) starts.
    span_end(exchange_span_);
    rebroadcast_span_ = spans_->begin(self_, "recovery.rebroadcast",
                                      net_.scheduler().now(), recovery_span_);
  }
  const auto trans = old_ring_.valid()
                         ? recovery_->transitional_members(old_ring_)
                         : with_member({}, self_);
  for (SeqNum s : recovery_->to_rebroadcast(trans, old_received_)) {
    if (s <= old_gc_upto_) {
      // GC proved every old-ring member received s, so only a corrupted
      // (CRC-colliding) ack can claim to lack it. The body is gone either
      // way; dropping the spurious request is the only safe answer.
      continue;
    }
    auto it = old_msgs_.find(s);
    EVS_ASSERT(it != old_msgs_.end());
    broadcast(encode_msg(RecoveryMsgMsg{self_, recovery_->proposed_ring(), it->second}));
  }
  const bool complete = recovery_->self_complete(trans, old_received_);
  if (complete && !acked_complete_) {
    // Step 5.c: persist, fold in the transitional members' obligations, and
    // only then acknowledge completion.
    if (!opts_.faults.ignore_obligations) {
      obligation_set_ = recovery_->merged_obligations(trans);
    }
    if (opts_.faults.ack_without_persist) {
      // Mutation under test: acknowledge without writing anything. A crash
      // after this ack recovers without the backlog the ack promised.
      acked_complete_ = true;
      span_end(rebroadcast_span_);
    } else if (Status st = persist_recovery_state(); st.ok()) {
      acked_complete_ = true;
      span_end(rebroadcast_span_);
    } else {
      // Never acknowledge what is not durable. The ack below still goes out
      // with complete=false; the next exchange tick retries the persist, and
      // the recovery timeout regathers if the store stays broken.
      met_.persist_retries.inc();
    }
  }
  broadcast(encode_msg(RecoveryAckMsg{self_, recovery_->proposed_ring(), old_ring_,
                                      old_received_, acked_complete_}));
}

void EvsNode::try_finish_recovery() {
  if (state_ != State::Recovery || !recovery_->have_all_exchanges() ||
      !acked_complete_ || !recovery_->all_complete()) {
    return;
  }
  const RingId new_ring = recovery_->proposed_ring();
  const std::vector<ProcessId> members = recovery_->members();
  if (old_ring_.valid()) {
    const auto trans = recovery_->transitional_members(old_ring_);
    const SeqSet uni = recovery_->union_received(trans);
    const auto lookup = [this](SeqNum s) -> const RegularMsg* {
      auto it = old_msgs_.find(s);
      return it == old_msgs_.end() ? nullptr : &it->second;
    };
    const std::vector<ProcessId> obligations =
        opts_.faults.ignore_obligations ? std::vector<ProcessId>{}
                                        : recovery_->merged_obligations(trans);
    Step6Plan plan = plan_step6(trans, uni, recovery_->global_safe_upto(trans),
                                obligations, lookup, old_delivered_upto_,
                                old_delivered_extra_, old_gc_upto_);
    if (opts_.faults.deliver_past_holes && !plan.discarded.empty()) {
      // Fault injection: omit step 6.a's causal-suspicion discard.
      plan.trans_seqs.insert(plan.trans_seqs.end(), plan.discarded.begin(),
                             plan.discarded.end());
      std::sort(plan.trans_seqs.begin(), plan.trans_seqs.end());
      plan.discarded.clear();
    }
    install_configuration(new_ring, members, &plan);
  } else {
    install_configuration(new_ring, members, nullptr);
  }
}

// --------------------------------------------------------------------------
// timers

Scheduler::Handle EvsNode::schedule_guarded(SimTime delay, std::function<void()> fn) {
  return net_.scheduler().schedule_after(
      delay, [alive = std::weak_ptr<char>(alive_), fn = std::move(fn)] {
        // A crashed incarnation may be destroyed while this callback is
        // still queued; the expired token makes it a no-op instead of a
        // use-after-free.
        if (alive.expired()) return;
        fn();
      });
}

void EvsNode::arm_token_loss_timer() {
  net_.scheduler().cancel(token_loss_timer_);
  const std::size_t n = core_->members().size();
  // A member whose last visit found the ring idle may next see the token
  // only after the representative's hold: allow for it, so that a held ring
  // tolerates the same stall as a spinning one before it gathers.
  const SimTime timeout =
      opts_.token_loss_for(n) + (core_->ring_may_be_held() ? opts_.token_hold_for(n) : 0);
  const std::uint64_t epoch = epoch_;
  token_loss_timer_ = schedule_guarded(timeout, [this, epoch] {
    if (epoch != epoch_ || state_ != State::Operational) return;
    EVS_DEBUG("evs", "%s token loss on %s", to_string(self_).c_str(),
              to_string(core_->ring()).c_str());
    enter_gather(core_->members(), nullptr);
  });
}

void EvsNode::arm_token_retransmit() {
  net_.scheduler().cancel(token_retransmit_timer_);
  if (token_retransmits_left_ <= 0 || last_token_frame_.empty()) return;
  const std::uint64_t epoch = epoch_;
  token_retransmit_timer_ = schedule_guarded(
      opts_.token_retransmit_for(core_->members().size()), [this, epoch] {
        if (epoch != epoch_ || state_ != State::Operational) return;
        if (token_retransmits_left_ <= 0 || last_token_frame_.empty()) return;
        --token_retransmits_left_;
        met_.token_retransmits.inc();
        net_.unicast(self_, core_->next_in_ring(), last_token_frame_);
        arm_token_retransmit();
      });
}

void EvsNode::cancel_token_retransmit() {
  net_.scheduler().cancel(token_retransmit_timer_);
  token_retransmit_timer_ = Scheduler::Handle{};
  last_token_frame_.clear();
  token_retransmits_left_ = 0;
}

void EvsNode::beacon_tick(std::uint64_t epoch) {
  if (epoch != epoch_ || state_ != State::Operational) return;
  broadcast(encode_msg(BeaconMsg{self_, core_->ring()}));
  schedule_guarded(opts_.beacon_interval_us, [this, epoch] { beacon_tick(epoch); });
}

// --------------------------------------------------------------------------
// packet handling

void EvsNode::broadcast(const std::vector<std::uint8_t>& bytes) {
  // Internal protocol messages are bounded well below kMaxFrameBody, so an
  // error here is a programming bug: keep the legacy hard-fail via value().
  net_.broadcast(self_, wire::seal_frame(bytes).value());
}

void EvsNode::unicast_frame(ProcessId to, const std::vector<std::uint8_t>& body) {
  net_.unicast(self_, to, wire::seal_frame(body).value());
}

void EvsNode::on_packet(const Packet& packet) {
  if (state_ == State::Down) return;
  // A datagram carries one or more frames: a packed run of data frames, or
  // a single token or control frame. The network is adversarial
  // (src/sim/faults.hpp): frames may arrive truncated, extended or
  // byte-flipped. Reject — never crash on — anything that fails the frame
  // check or strict message validation; a cursor error abandons the rest of
  // the datagram (a garbled length field makes the remainder untrustworthy).
  wire::FrameCursor cursor(packet.payload());
  bool deliver = false;
  while (!cursor.done()) {
    if (state_ == State::Down) return;  // a frame can fail-stop the node
    const auto body = cursor.next();
    if (!body.ok()) {
      note_frame_reject(body.code());
      break;
    }
    if (peek_type(*body) == MsgType::Regular) {
      // Hot path: decode a view over the datagram (zero-copy); the packet's
      // DatagramRef pins the bytes for as long as the view is stored.
      auto view = try_decode_regular_view(*body, packet.data);
      if (!view.has_value()) {
        met_.rejected_decode.inc();
        continue;
      }
      deliver = handle_regular(std::move(*view)) || deliver;
      continue;
    }
    const auto msg = try_decode(*body);
    if (!msg.has_value()) {
      met_.rejected_decode.inc();
      continue;
    }
    if (const auto* t = std::get_if<TokenMsg>(&*msg)) {
      handle_token(*t);
    } else if (const auto* j = std::get_if<JoinMsg>(&*msg)) {
      if (packet.src != self_) handle_join(*j);
    } else if (const auto* f = std::get_if<FormRingMsg>(&*msg)) {
      if (packet.src != self_) handle_form_ring(*f);
    } else if (const auto* e = std::get_if<ExchangeMsg>(&*msg)) {
      handle_exchange(*e);
    } else if (const auto* r = std::get_if<RecoveryMsgMsg>(&*msg)) {
      handle_recovery_msg(*r);
    } else if (const auto* a = std::get_if<RecoveryAckMsg>(&*msg)) {
      handle_recovery_ack(*a);
    } else if (const auto* b = std::get_if<BeaconMsg>(&*msg)) {
      if (packet.src != self_) handle_beacon(*b);
    } else if (const auto* c = std::get_if<TokenHoldCancelMsg>(&*msg)) {
      if (packet.src != self_) handle_token_hold_cancel(*c);
    }
  }
  // One delivery pass for the whole datagram, however many frames it packed.
  if (deliver) deliver_ready();
}

bool EvsNode::stale_from_member(RingSeq seq, ProcessId sender) const {
  return seq < reg_config_.id.ring.seq &&
         std::binary_search(reg_config_.members.begin(), reg_config_.members.end(),
                            sender);
}

void EvsNode::deliver_ready() {
  if (state_ != State::Operational) return;
  if (!core_->state_consistent()) {
    // Delivering from corrupted ordering state would hand the application a
    // wrong total order (or walk the delivery loop into a GC'd hole and
    // abort). Fail-stop first; peers reconfigure around the silence.
    protocol_fail_stop("ordering state before delivery");
    return;
  }
  const auto ready = core_->drain_deliverable();
  if (ready.empty()) return;
  // Write-ahead: drain_deliverable() has already advanced delivered_upto, so
  // record the progress BEFORE the application callbacks run. A crash in
  // between loses these deliveries at a failed process (legal); the reverse
  // order would redeliver them to the next incarnation (Spec 1.4 forbids).
  if (Status st = persist_delivered_meta(); !st.ok()) {
    storage_fail_stop("delivered_meta");
    return;
  }
  met_.deliver_batch_size.record(static_cast<std::int64_t>(ready.size()));
  deliver_batch(ready, reg_config_);
}

bool EvsNode::handle_regular(RegularMsgView m) {
  switch (state_) {
    case State::Operational:
      if (m.ring == core_->ring()) {
        if (core_->on_regular(std::move(m))) {
          return true;  // caller runs one deliver_ready() per datagram
        }
        met_.duplicate_regulars.inc();
      } else if (stale_from_member(m.ring.seq, m.id.sender)) {
        // A delayed duplicate from a ring that preceded ours (ring seqs are
        // monotone per process, so a current member can no longer be
        // operational on a lower-seq ring). Not a merge signal.
        met_.stale_rejected.inc();
      } else {
        // Traffic from another ring in our component: the network merged.
        // The message itself is dropped; its sender's exchange covers it.
        enter_gather(with_member(core_->members(), m.id.sender), nullptr);
      }
      break;
    case State::Gather:
    case State::Recovery:
      // Cold paths own their bytes: the gather/recovery backlog must not pin
      // whole receive datagrams for the episode's duration.
      if (old_ring_.valid() && m.ring == old_ring_ && !old_received_.contains(m.seq)) {
        // Straggler from the old ring: keep it; it can only shrink the
        // rebroadcast volume. (Frozen exchanges keep step 6 deterministic.)
        old_received_.insert(m.seq);
        old_msgs_.emplace(m.seq, m.to_owned());
      } else if (state_ == State::Recovery && m.ring == recovery_->proposed_ring()) {
        new_ring_buffer_.push_back(m.to_owned());  // paper step 2 buffering
      }
      break;
    case State::Down: break;
  }
  return false;
}

void EvsNode::handle_token(const TokenMsg& t) {
  switch (state_) {
    case State::Operational: {
      if (t.ring != core_->ring()) return;
      if (held_token_ &&
          (t.rotation <= held_token_->rotation || t.seq < held_token_->seq)) {
        // The predecessor's retransmit guard resent the token we hold (a
        // hold that ran late), or another stale copy.
        met_.stale_tokens.inc();
        return;
      }
      if (core_->token_is_stale(t)) {
        // Duplicated or retransmitted token we already processed.
        met_.stale_tokens.inc();
        return;
      }
      // A fresh token came back around: the previous forward made it.
      if (!core_->state_consistent()) {
        // Stamping or acknowledging from corrupted counters would propagate
        // the damage into the shared token. Fail-stop instead; the broken
        // token visit looks like token loss to the rest of the ring.
        protocol_fail_stop("ordering state at token visit");
        return;
      }
      // Only a forged or corrupted token can overtake a held one; it
      // supersedes it, as it would a token processed a moment earlier.
      drop_held_token("superseded");
      cancel_token_retransmit();
      met_.tokens_handled.inc();
      const SimTime tok_now = net_.scheduler().now();
      if (rotation_since_ != 0) {
        met_.token_rotation_us.record(tok_now - rotation_since_);
      }
      span_end(rotation_span_);
      // Token hold: the representative keeps the unprocessed token of an
      // idle ring (OrderingCore::may_hold proves that this delays no
      // delivery) unless it has something to send or a cancel already
      // asked for the token.
      const bool cancelled = std::exchange(hold_cancel_seen_, false);
      if (core_->ring().rep == self_ && pending_.empty() && !cancelled &&
          core_->may_hold(t)) {
        hold_token(t);
      } else {
        process_token(t);
      }
      break;
    }
    case State::Recovery:
      if (t.ring == recovery_->proposed_ring()) buffered_token_ = t;
      break;
    case State::Gather:
    case State::Down:
      break;
  }
}

void EvsNode::process_token(const TokenMsg& t) {
  hold_cancel_sent_ = false;
  OrderingCore::TokenResult result = core_->on_token(t, pending_);
  note_pending_sends();
  for (const RegularMsgView& m : result.new_messages) {
    met_.sent.inc();
    const Ord ord = ord_send_after(last_ord_);
    EVS_ASSERT_MSG(ord.ring_seq == reg_config_.id.ring.seq,
                   "send must follow an event of the current ring");
    EVS_ASSERT_MSG(ord.offset % kOrdGranule < kOrdGranule / 2,
                   "send slots between deliveries exhausted");
    last_ord_ = ord;
    if (trace_ != nullptr) {
      TraceEvent e;
      e.type = EventType::Send;
      e.process = self_;
      e.time = net_.scheduler().now();
      e.msg = m.id;
      e.service = m.service;
      e.seq = m.seq;
      e.config = reg_config_.id;
      e.ord = ord;
      trace_->record(std::move(e));
    }
  }
  // Frame packing: concatenate up to batch_max_frames regular frames
  // per broadcast datagram (soft-capped at batch_max_bytes), so a burst
  // drained at one token visit costs a handful of datagrams instead of
  // one per message. Frames are self-delimiting; receivers walk a
  // wire::FrameCursor.
  {
    std::vector<std::uint8_t> dgram;
    int frames = 0;
    const auto flush = [&] {
      if (frames == 0) return;
      if (frames >= 2) met_.datagrams_packed.inc();
      net_.broadcast(self_, std::move(dgram));
      dgram = {};
      frames = 0;
    };
    for (const RegularMsgView& m : result.to_broadcast) {
      const std::vector<std::uint8_t> body = encode_msg(m);
      if (frames > 0 &&
          (frames >= opts_.batch_max_frames ||
           dgram.size() + wire::kFrameHeaderBytes + body.size() >
               opts_.batch_max_bytes)) {
        flush();
      }
      const Status st = wire::append_frame(dgram, body);
      EVS_ASSERT_MSG(st.ok(), "regular frame exceeds kMaxFrameBody");
      ++frames;
    }
    flush();
  }
  // The token travels alone: one frame in its own datagram, never packed
  // with data, so a token retransmit resends just the token and a fault
  // rule aimed at tokens sees every one of them.
  std::vector<std::uint8_t> token_frame =
      wire::seal_frame(encode_msg(result.token_out)).value();
  if (core_->members().size() == 1) {
    // Loopback is reliable, so a singleton needs no retransmission guard.
    net_.unicast(self_, self_, std::move(token_frame));
  } else {
    net_.unicast(self_, core_->next_in_ring(), token_frame);
    // Guard the forward against loss/corruption: resend the identical
    // token until a fresh one returns (the receiver drops duplicates by
    // rotation). Cheaper than the full token-loss gather.
    last_token_frame_ = std::move(token_frame);
    token_retransmits_left_ = opts_.token_retransmit_limit;
    arm_token_retransmit();
  }
  const SimTime now = net_.scheduler().now();
  rotation_since_ = now;
  if (spans_ != nullptr) rotation_span_ = spans_->begin(self_, "token.rotation", now);
  arm_token_loss_timer();
  deliver_ready();
}

void EvsNode::hold_token(const TokenMsg& t) {
  held_token_ = t;
  met_.token_holds.inc();
  // The holder has the token, so it cannot lose it: its token-loss timer
  // stays off until process_token re-arms it.
  net_.scheduler().cancel(token_loss_timer_);
  if (spans_ != nullptr) {
    hold_span_ = spans_->begin(self_, "token.hold", net_.scheduler().now());
  }
  arm_hold_timer(opts_.token_hold_for(core_->members().size()));
}

void EvsNode::arm_hold_timer(SimTime delay) {
  net_.scheduler().cancel(hold_timer_);
  const std::uint64_t epoch = epoch_;
  hold_timer_ = schedule_guarded(delay, [this, epoch] {
    if (epoch != epoch_ || state_ != State::Operational || !held_token_) return;
    release_held_token("timer");
  });
}

void EvsNode::release_held_token(const char* cause) {
  const TokenMsg t = std::move(*held_token_);
  drop_held_token(cause);
  if (!core_->state_consistent()) {
    protocol_fail_stop("ordering state at token release");
    return;
  }
  process_token(t);
}

void EvsNode::drop_held_token(const char* cause) {
  if (!held_token_) return;
  net_.scheduler().cancel(hold_timer_);
  hold_timer_ = Scheduler::Handle{};
  if (spans_ != nullptr && hold_span_ != 0) spans_->attr(hold_span_, "released_by", cause);
  span_end(hold_span_);
  held_token_.reset();
}

void EvsNode::wake_held_ring() {
  if (state_ != State::Operational) return;
  const bool holding = held_token_.has_value();
  // By OrderingCore::may_hold's proof, a member whose last visit was not
  // its kQuietVisitsBeforeHold-th quiet one never faces a held token.
  if (!holding && (core_->ring().rep == self_ || !core_->ring_may_be_held())) return;
  if (!hold_cancel_sent_) {
    // One cancel per visit, multicast as Corosync does: every member's
    // receive path wakes in parallel and stays awake for the rotations
    // that follow, so no hop of them lands on a sleeping thread.
    hold_cancel_sent_ = true;
    met_.token_hold_cancels.inc();
    broadcast(encode_msg(TokenHoldCancelMsg{self_, core_->ring()}));
    net_.expect_traffic(kWakeWindowUs);
  }
  if (holding && !send_release_pending_) {
    // Release from a fresh scheduler turn, not from inside send(): the
    // visit delivers, and the caller may be a delivery handler.
    send_release_pending_ = true;
    const std::uint64_t epoch = epoch_;
    schedule_guarded(0, [this, epoch] {
      send_release_pending_ = false;
      if (epoch != epoch_ || state_ != State::Operational || !held_token_) return;
      release_held_token("send");
    });
  }
}

void EvsNode::handle_token_hold_cancel(const TokenHoldCancelMsg& c) {
  // A cancel from another ring is ignored: beacons already detect merges.
  if (state_ != State::Operational || c.ring != core_->ring()) return;
  net_.expect_traffic(kWakeWindowUs);
  // Only the holder acts on it.
  if (core_->ring().rep != self_) return;
  if (held_token_) {
    release_held_token("cancel");
    return;
  }
  // The token is still on its way here: do not hold it at its arrival.
  hold_cancel_seen_ = true;
}

void EvsNode::handle_join(const JoinMsg& j) {
  const SimTime now = net_.scheduler().now();
  switch (state_) {
    case State::Operational: {
      if (stale_from_member(j.max_ring_seq, j.sender)) {
        // A member of our ring adopted its proposal (seq >= ours) before we
        // installed, so its live joins always carry max_ring_seq >= ours.
        met_.stale_rejected.inc();
        return;
      }
      auto candidates = with_member(core_->members(), j.sender);
      enter_gather(std::move(candidates), nullptr);
      gather_->on_join(j, now);
      maybe_propose();
      break;
    }
    case State::Gather:
      gather_->on_join(j, now);
      maybe_propose();
      break;
    case State::Recovery: {
      const bool member = std::binary_search(recovery_->members().begin(),
                                             recovery_->members().end(), j.sender);
      if (member && join_proposal(j) == recovery_->members()) {
        // The sender missed our FormRing; the representative re-sends it
        // every exchange interval, so stay in recovery.
        return;
      }
      if (member && j.max_ring_seq < recovery_->proposed_ring().seq) {
        // A delayed duplicate from the gather episode that produced this
        // proposal (the proposal's seq exceeds every max_ring_seq gathered
        // then). Without this check, duplicated joins bounce the whole
        // component between Gather and Recovery indefinitely. A genuinely
        // diverged peer re-sends joins every join interval, and the
        // recovery timeout regathers if it never converges.
        met_.stale_rejected.inc();
        return;
      }
      auto candidates = recovery_->members();
      candidates = with_member(std::move(candidates), j.sender);
      enter_gather(std::move(candidates), nullptr);
      gather_->on_join(j, now);
      maybe_propose();
      break;
    }
    case State::Down: break;
  }
}

void EvsNode::handle_form_ring(const FormRingMsg& f) {
  const bool includes_self =
      std::binary_search(f.members.begin(), f.members.end(), self_);
  switch (state_) {
    case State::Gather:
      // A current-episode proposal is always numbered past every member's
      // advertised ring_seq_ (the representative takes max-seen + 1), and our
      // own ring_seq_ cannot change while we sit in Gather — so a FormRing at
      // or below it is a stale retransmission of an earlier episode. Real
      // transports surface these (a straggler can sit in the socket buffer
      // across a regather); adopting one would re-install a ring we already
      // delivered in, regressing the configuration-change total order.
      repair_ring_seq();
      if (includes_self && f.ring.seq > ring_seq_ &&
          f.members == gather_->proposed_membership()) {
        adopt_proposal(f.ring, f.members);
      }
      break;
    case State::Recovery:
      if (f.ring == recovery_->proposed_ring()) return;
      // Same staleness rule: a proposal not numbered past the one we hold is
      // a leftover from a superseded episode, not a restart.
      if (f.ring.seq <= recovery_->proposed_ring().seq) return;
      if (includes_self && f.members == recovery_->members()) {
        // Representative restarted the proposal under a fresh ring id.
        adopt_proposal(f.ring, f.members);
      } else if (includes_self) {
        enter_gather(f.members, nullptr);
      }
      break;
    case State::Operational:
      if (f.ring.seq > reg_config_.id.ring.seq) {
        enter_gather(with_member(core_->members(), f.sender), nullptr);
      }
      break;
    case State::Down: break;
  }
}

void EvsNode::handle_exchange(const ExchangeMsg& e) {
  switch (state_) {
    case State::Recovery:
      if (e.proposed_ring == recovery_->proposed_ring()) {
        if (recovery_->on_exchange(e)) {
          recovery_round();
          try_finish_recovery();
        }
      }
      break;
    case State::Operational:
      if (e.proposed_ring == reg_config_.id.ring && e.sender != self_) {
        // We already installed this ring; a peer is still waiting for our
        // completion. Re-acknowledge so it can finish too.
        broadcast(encode_msg(
            RecoveryAckMsg{self_, reg_config_.id.ring, RingId{}, SeqSet{}, true}));
      }
      break;
    case State::Gather:
    case State::Down:
      break;
  }
}

void EvsNode::handle_recovery_msg(const RecoveryMsgMsg& r) {
  if (state_ != State::Recovery) return;
  if (r.proposed_ring != recovery_->proposed_ring()) return;
  if (!old_ring_.valid() || r.inner.ring != old_ring_) return;
  if (old_received_.contains(r.inner.seq)) return;
  old_received_.insert(r.inner.seq);
  old_msgs_.emplace(r.inner.seq, r.inner);
}

void EvsNode::handle_recovery_ack(const RecoveryAckMsg& a) {
  if (state_ != State::Recovery) return;
  if (a.proposed_ring != recovery_->proposed_ring()) return;
  recovery_->on_ack(a);
  try_finish_recovery();
}

void EvsNode::handle_beacon(const BeaconMsg& b) {
  if (state_ != State::Operational) return;
  if (b.ring == core_->ring()) return;
  if (stale_from_member(b.ring.seq, b.sender)) {
    met_.stale_rejected.inc();
    return;
  }
  enter_gather(with_member(core_->members(), b.sender), nullptr);
}

}  // namespace evs
