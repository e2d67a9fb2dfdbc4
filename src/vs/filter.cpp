#include "vs/filter.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/log.hpp"
#include "wire/codec.hpp"

namespace evs {
namespace {

constexpr std::uint8_t kFrameApp = 0;
constexpr std::uint8_t kFrameState = 1;
constexpr const char* kKeyVsMeta = "vs_meta";

}  // namespace

const char* to_string(VsNode::Mode m) {
  switch (m) {
    case VsNode::Mode::Down: return "Down";
    case VsNode::Mode::Blocked: return "Blocked";
    case VsNode::Mode::Exchanging: return "Exchanging";
    case VsNode::Mode::InPrimary: return "InPrimary";
  }
  return "?";
}

VsNode::Met::Met(obs::MetricsRegistry& r)
    : views_installed(r.counter("vs.views_installed")),
      delivered(r.counter("vs.delivered")),
      discarded_blocked(r.counter("vs.discarded_blocked")),
      sends_rejected(r.counter("vs.sends_rejected")),
      exchanges(r.counter("vs.exchanges")),
      stops(r.counter("vs.stops")) {}

VsNode::Stats VsNode::stats() const {
  Stats s;
  s.views_installed = met_.views_installed.value();
  s.delivered = met_.delivered.value();
  s.discarded_blocked = met_.discarded_blocked.value();
  s.sends_rejected = met_.sends_rejected.value();
  s.exchanges = met_.exchanges.value();
  s.stops = met_.stops.value();
  return s;
}

VsNode::VsNode(ProcessId id, Transport& net, StableStore& store, TraceLog* evs_trace,
               VsTraceLog* vs_trace, EvsNode::Options evs_options, Options options)
    : self_(id),
      store_(store),
      vs_trace_(vs_trace),
      options_(options),
      sched_(net.scheduler()),
      evs_(id, net, store, evs_trace, evs_options) {
  EVS_ASSERT_MSG(options_.universe > 0, "universe size is required");
  if (options_.policy == Policy::DynamicLinearVoting) {
    std::vector<ProcessId> universe;
    for (std::uint32_t i = 1; i <= options_.universe; ++i) {
      universe.push_back(ProcessId{i});
    }
    dlv_.emplace(store_, std::move(universe));
  }
  evs_.set_on_config_change([this](const Configuration& c) { on_evs_config(c); });
  evs_.set_on_deliver([this](const EvsNode::Delivery& d) { on_evs_deliver(d); });
}

Status VsNode::persist_meta() {
  wire::Writer w;
  w.u32(incarnation_);
  w.boolean(in_continuity_);
  w.boolean(have_view_);
  w.u64(view_.id);
  w.pid_vec(view_.members);
  return store_.put(kKeyVsMeta, w.take());
}

Status VsNode::load_meta() {
  auto blob = store_.get(kKeyVsMeta);
  if (!blob.has_value()) return Status{};
  wire::Reader r(*blob);
  incarnation_ = r.u32();
  in_continuity_ = r.boolean();
  have_view_ = r.boolean();
  view_.id = r.u64();
  view_.members = r.pid_vec();
  EVS_ASSERT(r.done());
  // If we died inside the primary lineage, crash() already emitted the stop
  // event; the recovered incarnation starts outside the lineage. The rename
  // must be durable before anything else happens, or a second crash could
  // reuse the incarnation and with it a retired VS identity.
  if (in_continuity_) {
    in_continuity_ = false;
    if (options_.rename_on_rejoin) ++incarnation_;
    return persist_meta();
  }
  return Status{};
}

void VsNode::start() {
  EVS_ASSERT(mode_ == Mode::Down);
  if (Status st = load_meta(); !st.ok()) {
    storage_fail_stop("vs boot meta");
    return;
  }
  mode_ = Mode::Blocked;
  evs_.start();
  // The EVS layer's own boot persistence may have fail-stopped it.
  if (!evs_.running()) mode_ = Mode::Down;
}

void VsNode::storage_fail_stop(const char* where) {
  EVS_WARN("vs", "%s stable storage failed at %s; fail-stop",
           to_string(self_).c_str(), where);
  if (mode_ != Mode::Down) {
    crash();
    return;
  }
  // Boot never got off the ground; nothing volatile to tear down.
  exchange_config_.reset();
  peer_states_.clear();
  buffered_.clear();
}

void VsNode::crash() {
  if (mode_ == Mode::Down) return;
  if (in_continuity_) emit_stop();
  evs_.crash();
  mode_ = Mode::Down;
  exchange_config_.reset();
  peer_states_.clear();
  buffered_.clear();
  trans_held_.clear();
}

Expected<MsgId> VsNode::send(std::vector<std::uint8_t> payload) {
  // Filter rule 2: only processes inside the primary lineage accept
  // messages. During a pending primary decision a member that was in the
  // previous primary view may keep sending (if the decision comes back
  // non-primary it will emit a VS stop, which is exactly the fail-stop
  // account of its unpaired sends); a process still outside the lineage
  // must wait until its join view is installed.
  const bool accepting =
      mode_ == Mode::InPrimary || (mode_ == Mode::Exchanging && in_continuity_);
  if (!accepting) {
    met_.sends_rejected.inc();
    return Status::error(Errc::blocked_not_primary,
                         "blocked outside the primary component (filter rule 2)");
  }
  wire::Writer w;
  w.u8(kFrameApp);
  w.bytes(payload);
  // Safe delivery: VS atomicity needs every message a member delivers in a
  // view to reach each member that carries the view on, and an Agreed
  // delivery promises that to no one across a partition (its sender can
  // deliver it, leave the primary and stop before anyone else received it).
  Expected<MsgId> sent = evs_.send(Service::Safe, w.take());
  if (!sent.ok()) {
    met_.sends_rejected.inc();
    return sent;
  }
  const MsgId id = *sent;
  if (vs_trace_ != nullptr) {
    VsEvent e;
    e.type = VsEventType::Send;
    e.process = vs_identity();
    e.time = sched_.now();
    e.msg = id;
    e.view_id = have_view_ ? view_.id : 0;
    vs_trace_->record(std::move(e));
  }
  return id;
}

void VsNode::send_state_message() {
  wire::Writer w;
  w.u8(kFrameState);
  encode(w, exchange_config_->id.ring);
  w.u32(incarnation_);
  w.u64(have_view_ ? view_.id : 0);
  w.pid_vec(have_view_ ? view_.members : std::vector<ProcessId>{});
  const PrimaryEpoch& basis =
      dlv_.has_value() ? dlv_->basis() : PrimaryEpoch{};
  w.u64(basis.epoch);
  w.pid_vec(basis.members);
  evs_.send(Service::Safe, w.take()).value();
}

void VsNode::on_evs_config(const Configuration& config) {
  if (config.id.transitional) {
    // Filter rule 1: masked. Deliveries that follow are re-tagged to the
    // preceding regular configuration's view by the mode logic.
    return;
  }
  // A fresh regular configuration: the previous exchange (if unresolved) is
  // abandoned. Safe delivery guarantees that if *any* member decided the old
  // exchange, every member of our transitional configuration received the
  // same state messages before this point and decided identically — so an
  // exchange still unresolved here was resolved by no one we must agree with.
  if (!buffered_.empty()) {
    met_.discarded_blocked.inc(buffered_.size());
    buffered_.clear();
  }
  exchange_config_ = config;
  peer_states_.clear();
  met_.exchanges.inc();
  mode_ = Mode::Exchanging;
  send_state_message();
}

void VsNode::on_evs_deliver(const EvsNode::Delivery& d) {
  EVS_ASSERT(!d.payload.empty());
  if (d.payload[0] == kFrameState) {
    handle_state_msg(d);
    return;
  }
  switch (mode_) {
    case Mode::InPrimary:
      if (d.config.id.transitional) {
        trans_held_.push_back(d);
      } else {
        emit_deliver(d, view_.id);
      }
      break;
    case Mode::Exchanging: buffered_.push_back(d); break;
    case Mode::Blocked:
      met_.discarded_blocked.inc();  // filter rule 2
      break;
    case Mode::Down: break;
  }
}

void VsNode::handle_state_msg(const EvsNode::Delivery& d) {
  if (!exchange_config_.has_value()) return;
  wire::Reader r(d.payload);
  const std::uint8_t tag = r.u8();
  EVS_ASSERT(tag == kFrameState);
  const RingId ring = decode_ring_id(r);
  if (ring != exchange_config_->id.ring) return;  // stale exchange
  PeerState state;
  const std::uint32_t inc = r.u32();
  state.vs_id = vs_synth_id(d.id.sender, inc);
  state.last_view_id = r.u64();
  state.last_view_members = r.pid_vec();
  state.dlv_basis.epoch = r.u64();
  state.dlv_basis.members = r.pid_vec();
  EVS_ASSERT(r.done());
  peer_states_[d.id.sender] = std::move(state);
  maybe_decide();
}

void VsNode::maybe_decide() {
  if (!exchange_config_.has_value()) return;
  for (ProcessId p : exchange_config_->members) {
    if (peer_states_.count(p) == 0) return;
  }
  bool primary = false;
  if (dlv_.has_value()) {
    for (const auto& [p, s] : peer_states_) {
      if (Expected<bool> merged = dlv_->merge_peer(s.dlv_basis); !merged.ok()) {
        // The adopted basis could not be persisted: deciding on top of it
        // would let a crash resurrect the stale basis and form a rival
        // primary. Fail-stop instead of deciding.
        storage_fail_stop("dlv merge");
        return;
      }
    }
    primary = dlv_->decides_primary(*exchange_config_);
  } else {
    primary = 2 * exchange_config_->members.size() > options_.universe;
  }
  const auto states = peer_states_;
  if (primary) {
    decide_primary(states);
  } else {
    decide_blocked();
  }
  exchange_config_.reset();
  peer_states_.clear();
}

void VsNode::decide_primary(const std::map<ProcessId, PeerState>& states) {
  const Configuration config = *exchange_config_;

  // Current VS identities, and the most recent view anyone remembers.
  std::vector<ProcessId> identities;
  const PeerState* newest = nullptr;
  for (const auto& [pid, s] : states) {
    identities.push_back(s.vs_id);
    if (s.last_view_id > 0 && (newest == nullptr || s.last_view_id > newest->last_view_id)) {
      newest = &s;
    }
  }
  std::sort(identities.begin(), identities.end());

  std::uint64_t next_id;
  std::vector<ProcessId> base;
  std::vector<ProcessId> added;
  if (newest == nullptr) {
    // Bootstrap: the first primary ever. One view, no splitting.
    next_id = 1;
    base = identities;
  } else {
    next_id = newest->last_view_id + 1;
    for (ProcessId m : newest->last_view_members) {
      if (std::binary_search(identities.begin(), identities.end(), m)) {
        base.push_back(m);
      }
    }
    for (ProcessId m : identities) {
      if (!std::binary_search(newest->last_view_members.begin(),
                              newest->last_view_members.end(), m)) {
        added.push_back(m);
      }
    }
  }

  // Filter rule 3 (and 4): removals produce one view; each joining process
  // then enters one at a time, in ascending identifier order.
  const ProcessId me = vs_identity();
  std::vector<VsView> sequence;
  std::uint32_t step = 0;
  auto push_view = [&](std::vector<ProcessId> members) {
    VsView v;
    v.id = next_id++;
    v.members = std::move(members);
    v.ord = VsOrd{ord_regular_conf(config.id.ring), ++step};
    sequence.push_back(std::move(v));
  };
  if (newest == nullptr || base.empty()) {
    // Bootstrap, or a complete identity turnover (every member of the last
    // view re-joined under a fresh incarnation): there is no primary
    // remnant to merge into one process at a time, so the primary is
    // (re)founded with a single view. The continuity of the primary
    // history is carried by the underlying processes, which the policy
    // guarantees intersect the previous primary.
    base = identities;
    push_view(base);
  } else {
    if (base != newest->last_view_members) push_view(base);
    std::vector<ProcessId> cur = base;
    for (ProcessId joiner : added) {
      cur.insert(std::upper_bound(cur.begin(), cur.end(), joiner), joiner);
      push_view(cur);
    }
    if (sequence.empty()) push_view(base);  // same membership: a new instance
  }

  if (dlv_.has_value()) {
    // The attempt record must be durable BEFORE this process acts as
    // primary (the two-phase crash-safety protocol in vs/primary.hpp). If
    // it cannot be written, becoming primary anyway would let a crash erase
    // the epoch and a later majority of the *old* basis form a rival
    // primary — so fail-stop without deciding.
    if (Expected<PrimaryEpoch> a = dlv_->begin_attempt(config); !a.ok()) {
      storage_fail_stop("dlv attempt");
      return;
    }
    if (Status st = dlv_->confirm_attempt(); !st.ok()) {
      storage_fail_stop("dlv confirm");
      return;
    }
  }

  // Committed to the primary before the application hears about it, so a
  // view handler may immediately send into the new view (e.g. a state
  // transfer snapshot).
  // The transitional deliveries of the view we are leaving complete it
  // before the new views begin.
  for (const auto& d : trans_held_) emit_deliver(d, view_.id);
  trans_held_.clear();
  mode_ = Mode::InPrimary;
  in_continuity_ = true;
  for (const VsView& v : sequence) {
    if (std::binary_search(v.members.begin(), v.members.end(), me)) {
      emit_view(v);
    }
  }
  if (Status st = persist_meta(); !st.ok()) {
    // The lineage record did not land; the next incarnation would not know
    // it had been in the primary. Stop being one now (the crash emits the
    // VS stop event, which keeps the fail-stop account consistent).
    storage_fail_stop("vs meta");
    return;
  }

  // Release the application messages that were delivered while the decision
  // was in flight: they belong to the newly installed view.
  std::vector<EvsNode::Delivery> buffered;
  buffered.swap(buffered_);
  for (const auto& d : buffered) emit_deliver(d, view_.id);
}

void VsNode::decide_blocked() {
  met_.discarded_blocked.inc(buffered_.size() + trans_held_.size());
  buffered_.clear();
  trans_held_.clear();
  if (in_continuity_) emit_stop();  // filter rule 2: we left the primary
  mode_ = Mode::Blocked;
}

void VsNode::emit_view(const VsView& v) {
  view_ = v;
  have_view_ = true;
  met_.views_installed.inc();
  if (vs_trace_ != nullptr) {
    VsEvent e;
    e.type = VsEventType::View;
    e.process = vs_identity();
    e.time = sched_.now();
    e.view_id = v.id;
    e.members = v.members;
    e.ord = v.ord;
    vs_trace_->record(std::move(e));
  }
  if (view_handler_) view_handler_(v);
}

void VsNode::emit_deliver(const EvsNode::Delivery& d, std::uint64_t view_id) {
  met_.delivered.inc();
  VsDelivery out;
  out.id = d.id;
  out.view_id = view_id;
  out.ord = VsOrd{d.ord, 0};
  // Identity of the sender within the view.
  out.vs_sender = vs_synth_id(d.id.sender, 0);
  for (ProcessId m : view_.members) {
    if (vs_base_pid(m) == d.id.sender) {
      out.vs_sender = m;
      break;
    }
  }
  wire::Reader r(d.payload);
  const std::uint8_t tag = r.u8();
  EVS_ASSERT(tag == kFrameApp);
  out.payload = r.bytes();
  EVS_ASSERT(r.done());
  if (vs_trace_ != nullptr) {
    VsEvent e;
    e.type = VsEventType::Deliver;
    e.process = vs_identity();
    e.time = sched_.now();
    e.msg = d.id;
    e.view_id = view_id;
    e.ord = out.ord;
    vs_trace_->record(std::move(e));
  }
  if (deliver_handler_) deliver_handler_(out);
}

void VsNode::emit_stop() {
  met_.stops.inc();
  if (vs_trace_ != nullptr) {
    VsEvent e;
    e.type = VsEventType::Stop;
    e.process = vs_identity();
    e.time = sched_.now();
    vs_trace_->record(std::move(e));
  }
  in_continuity_ = false;
  if (options_.rename_on_rejoin) ++incarnation_;
  // Tolerate a persist failure here: a stale in_continuity_=true record is
  // resolved conservatively by load_meta() (the recovered incarnation
  // re-emits the rename), and emit_stop runs inside crash() — failing the
  // stop would recurse. Safety never depends on this write landing.
  if (Status st = persist_meta(); !st.ok()) {
    EVS_WARN("vs", "%s stop-record persist failed (tolerated)",
             to_string(self_).c_str());
  }
}

}  // namespace evs
