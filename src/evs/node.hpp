// EvsNode: a process running the extended virtual synchrony protocol stack.
//
// This is the library's primary public API. One EvsNode is one process of
// the paper's model. It composes:
//   * the total ordering substrate (totem/OrderingCore),
//   * the membership gather (member/GatherState),
//   * the EVS recovery algorithm (evs/RecoveryEngine + plan_step6),
// into a single state machine driven by the simulated network and timers.
//
// Lifecycle (matches the paper's failure model):
//   EvsNode n(pid, net, store, &trace);
//   n.start();          // installs a singleton regular configuration,
//                       // recovering any persisted backlog first, then
//                       // announces itself so components can merge
//   n.send(Service::Safe, payload);
//   n.crash();          // fail_p(c): volatile state lost, store survives
//   EvsNode n2(pid, net, store, &trace);  // recovery: same id, same store
//   n2.start();
//
// Applications observe two callbacks, registered with the uniform setters
// shared by every node layer (EvsNode, VsNode):
//   set_on_deliver(h)        - a message delivery, tagged with the
//                              configuration (regular or transitional) it is
//                              delivered in
//   set_on_config_change(h)  - a configuration change message (Section 2)
// EvsNode also offers set_on_deliver_batch(h), the zero-copy form of the
// same delivery slot (set_on_deliver is an owned-copy adapter over it).
//
// Every observable event is also appended to the TraceLog (if provided) for
// machine checking against Specifications 1-7, counted in the node's
// obs::MetricsRegistry, and — when a SpanSink is attached — traced as spans
// (gather / recovery / token rotation / token hold episodes; see
// src/obs/span.hpp).
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "evs/config.hpp"
#include "evs/recovery.hpp"
#include "member/membership.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "spec/trace.hpp"
#include "storage/stable_store.hpp"
#include "totem/messages.hpp"
#include "totem/ordering.hpp"
#include "util/status.hpp"
#include "util/types.hpp"

namespace evs {

class EvsNode final : public Endpoint {
 public:
  /// Deliberate protocol corruption, used by the mutation tests to prove
  /// the specification checker catches real protocol bugs end to end
  /// (tests/property/mutation_test.cpp). Never enable outside tests.
  struct FaultInjection {
    /// Omit step 5.c: obligation sets are not merged or persisted, so
    /// messages past a hole lose their delivery guarantee (breaks Specs 3,
    /// 5, 6.3 in partition scenarios).
    bool ignore_obligations{false};
    /// Omit step 6.a: deliver available messages past holes even from
    /// non-obligated senders (breaks Spec 5 — causally suspect delivery).
    bool deliver_past_holes{false};
    /// Ignore the acknowledgment horizon: deliver safe messages as soon as
    /// they are ordered (breaks Spec 7.1 when a partition interrupts).
    bool skip_safe_horizon{false};
    /// Omit the persist half of step 5.c: acknowledge recovery completion
    /// without writing the backlog and obligation set to stable storage. A
    /// crash after the ack then recovers without what the ack promised
    /// (breaks Specs 3/5/7.1 in crash-during-recovery scenarios — the
    /// mutation the crash-point sweep must catch).
    bool ack_without_persist{false};
  };

  struct Options {
    // Timeout profile. Each protocol timeout has a flat base plus a
    // per-member slope: the effective value for a ring/gather of n members
    // is base + per_member * (n - 1), computed by the *_for(n) helpers
    // below. The slope models the protocol's real cost growth — a token
    // rotation visits n processes, a gather floods n joins per interval, an
    // exchange round is n broadcasts — so a profile tuned at n=5 neither
    // falsely times out at n=100 nor waits 20x too long at n=3. The
    // defaults keep the historical flat values as the n=1 baseline; see
    // DESIGN.md "Timer scaling" for the derivation.
    SimTime token_loss_timeout_us{12'000};
    SimTime token_loss_per_member_us{1'000};
    SimTime beacon_interval_us{5'000};
    SimTime join_interval_us{1'000};
    SimTime gather_fail_timeout_us{8'000};
    SimTime gather_fail_per_member_us{250};
    SimTime consensus_wait_timeout_us{12'000};  ///< waiting for FormRing
    SimTime consensus_wait_per_member_us{300};
    SimTime exchange_interval_us{1'000};
    SimTime recovery_timeout_us{40'000};
    SimTime recovery_per_member_us{1'000};
    /// Totem-style token retransmission: after forwarding the token, resend
    /// the same token up to `token_retransmit_limit` times at this interval
    /// unless a fresh token returns first. Keeps the ring alive through
    /// sustained token loss/corruption without a full membership gather
    /// (limit * interval must stay below token_loss_timeout_us).
    SimTime token_retransmit_interval_us{2'500};
    SimTime token_retransmit_per_member_us{300};
    int token_retransmit_limit{3};
    /// Largest payload send() accepts. Must leave frame headroom below
    /// wire::kMaxFrameBody; oversized sends fail with payload_too_large.
    std::size_t max_payload_bytes{64u * 1024};
    /// Cap on the send queue: when the application outruns the token,
    /// send() fails fast with Errc::backpressure instead of queueing
    /// without bound. The drain callback (set_on_send_drain) fires once the
    /// queue falls back to half the cap, so producers can resume.
    std::size_t max_pending_sends{1024};
    /// Frame packing: up to this many regular-message frames share one
    /// broadcast datagram at a token visit (frames are self-delimiting, so
    /// packing is concatenation; receivers walk a wire::FrameCursor). 1
    /// restores the pre-batching one-frame-per-datagram wire shape — the
    /// sim-determinism test proves delivery order is identical either way.
    int batch_max_frames{16};
    /// Soft byte ceiling for a packed datagram. A single frame larger than
    /// this still travels alone; the ceiling only stops further packing.
    /// Keep below the transport's max datagram size (60 KiB for the live
    /// UDP transport).
    std::size_t batch_max_bytes{48u * 1024};
    OrderingCore::Options ordering{};
    FaultInjection faults{};

    // Effective (size-scaled) timeouts for an n-member ring or gather.
    SimTime token_loss_for(std::size_t n) const {
      return token_loss_timeout_us + token_loss_per_member_us * slope(n);
    }
    SimTime token_retransmit_for(std::size_t n) const {
      return token_retransmit_interval_us + token_retransmit_per_member_us * slope(n);
    }
    SimTime gather_fail_for(std::size_t n) const {
      return gather_fail_timeout_us + gather_fail_per_member_us * slope(n);
    }
    SimTime consensus_wait_for(std::size_t n) const {
      return consensus_wait_timeout_us + consensus_wait_per_member_us * slope(n);
    }
    SimTime recovery_for(std::size_t n) const {
      return recovery_timeout_us + recovery_per_member_us * slope(n);
    }
    /// Token hold (DESIGN.md "Token hold"): how long the representative of
    /// an idle n-member ring keeps the token before processing and
    /// forwarding it. Derived, never set: half the token-retransmit
    /// interval, so an ordinary hold never trips the predecessor's
    /// retransmit guard, or half the token-loss timeout when retransmission
    /// is off. A member whose last visit found the ring idle arms its
    /// token-loss timer for token_loss_for(n) + token_hold_for(n), so a held
    /// ring tolerates the same stalls as a spinning one.
    SimTime token_hold_for(std::size_t n) const {
      return (token_retransmit_limit > 0 ? token_retransmit_for(n) : token_loss_for(n)) /
             2;
    }

    /// A profile pre-stretched for rings of expected size n: besides the
    /// per-member slopes (which apply automatically), the periodic *sender*
    /// intervals — beacons, join floods, exchange rebroadcasts — are dilated
    /// so that per-interval traffic stays O(n) packets instead of O(n) per
    /// node (O(n^2) total). Use for large simulated clusters (n >= ~50).
    static Options scaled_for(std::size_t n);

    /// Check the option combination for internal consistency: every timeout
    /// positive, the token retransmit burst shorter than the token loss
    /// timeout (at every ring size, which the per-member slopes must also
    /// respect), gather/recovery tick intervals shorter than the timeouts
    /// that bound them, payload limit within the frame format. Returns
    /// Errc::invalid_options naming the violated rule. The EvsNode
    /// constructor asserts this, so a misconfigured node fails at
    /// construction instead of livelocking mid-simulation.
    Status validate() const;

   private:
    static SimTime slope(std::size_t n) {
      return n > 1 ? static_cast<SimTime>(n - 1) : 0;
    }
  };

  enum class State { Down, Operational, Gather, Recovery };

  struct Delivery {
    MsgId id;
    Service service{Service::Agreed};
    SeqNum seq{0};
    std::vector<std::uint8_t> payload;
    Configuration config;  ///< regular or transitional configuration
    Ord ord;
  };

  /// Snapshot of the node's "evs.*" counters. The obs::MetricsRegistry is
  /// the source of truth; this struct is assembled on demand by stats() for
  /// ergonomic field access in tests and benches.
  struct Stats {
    std::uint64_t sent{0};
    std::uint64_t delivered{0};
    std::uint64_t delivered_transitional{0};
    std::uint64_t conf_changes{0};
    std::uint64_t gathers{0};
    std::uint64_t recoveries{0};
    std::uint64_t discarded{0};
    std::uint64_t tokens_handled{0};
    // --- adversarial-input hardening (see src/sim/faults.hpp) ---
    std::uint64_t rejected_frames{0};      ///< frames failing length/CRC check
    std::uint64_t rejected_decode{0};      ///< frames whose body fails try_decode
    std::uint64_t stale_rejected{0};       ///< duplicated/stale cross-ring traffic
    std::uint64_t duplicate_regulars{0};   ///< duplicate regular messages ignored
    std::uint64_t stale_tokens{0};         ///< stale/duplicate tokens ignored
    std::uint64_t token_retransmits{0};    ///< tokens re-sent by the loss guard
    std::uint64_t send_errors{0};          ///< send() calls rejected with a Status
    std::uint64_t backpressure_rejections{0};  ///< sends refused at the queue cap
    // --- datagram batching (frame packing) ---
    std::uint64_t datagrams_packed{0};   ///< broadcast datagrams carrying >= 2 frames
    // --- fallible stable storage (see storage/stable_store.hpp) ---
    std::uint64_t storage_fail_stops{0};  ///< persists whose failure stopped the node
    std::uint64_t persist_retries{0};     ///< step-5.c acks aborted by a failed persist
    // --- self-stabilization guards (see DESIGN.md "State-corruption fault
    // model"): detected volatile-state corruption either repaired in place
    // or converted into a fail-stop ---
    std::uint64_t state_fail_stops{0};  ///< inconsistent volatile state -> crash
    std::uint64_t ring_seq_repairs{0};  ///< ring_seq_ re-derived from installed ring
  };

  /// Zero-copy delivery record: `payload` points into the datagram (or
  /// send-side buffer) the message arrived in, pinned for the duration of
  /// the callback. Copy what must outlive the callback (Delivery's owned
  /// payload is exactly that copy).
  struct DeliveryView {
    MsgId id;
    Service service{Service::Agreed};
    SeqNum seq{0};
    std::span<const std::uint8_t> payload;
    const Configuration* config{nullptr};
    Ord ord;
  };

  using DeliverHandler = std::function<void(const Delivery&)>;
  /// One callback per deliverable batch (a token visit or packed datagram
  /// typically readies several messages at once; recovery step 6 delivers
  /// its 6.b and 6.d runs as one batch each). Every view in a batch carries
  /// the same configuration. Views are valid only for the duration of the
  /// call.
  using DeliverBatchHandler = std::function<void(std::span<const DeliveryView>)>;
  using ConfigHandler = std::function<void(const Configuration&)>;

  EvsNode(ProcessId id, Transport& net, StableStore& store, TraceLog* trace = nullptr)
      : EvsNode(id, net, store, trace, Options{}) {}
  EvsNode(ProcessId id, Transport& net, StableStore& store, TraceLog* trace,
          Options options);
  ~EvsNode() override;

  EvsNode(const EvsNode&) = delete;
  EvsNode& operator=(const EvsNode&) = delete;

  /// The node has ONE delivery slot and ONE configuration slot, and the
  /// latest registration owns each: every delivery — regular, and the
  /// recovery-time 6.b/6.d deliveries in the old regular and the
  /// transitional configuration — and every configuration install reaches
  /// its one handler exactly once.
  ///
  /// Register the zero-copy batch delivery callback.
  void set_on_deliver_batch(DeliverBatchHandler h) { deliver_handler_ = std::move(h); }
  /// Register a per-message callback (the setter name VsNode shares). An
  /// adapter over the batch slot: each view is copied into an owned Delivery.
  void set_on_deliver(DeliverHandler h);
  /// Register the configuration-change callback.
  void set_on_config_change(ConfigHandler h) { config_handler_ = std::move(h); }

  /// Boot (fresh start or recovery with intact stable storage). Installs a
  /// singleton regular configuration — delivering the persisted backlog in a
  /// transitional configuration first if the previous incarnation died with
  /// recovery obligations — and announces presence to the component.
  void start();

  /// Fail (fail_p(c)): volatile state vanishes, timers stop, the endpoint
  /// detaches. The stable store is untouched; construct a fresh EvsNode on
  /// the same store to model recovery.
  void crash();

  /// Queue an application message. It is stamped into the total order at
  /// the next token visit of the current (or next) regular configuration;
  /// that stamping is the model's send_p(m, c) event. Fails with
  /// Errc::not_running on a crashed node, Errc::payload_too_large when the
  /// payload exceeds Options::max_payload_bytes, and Errc::backpressure
  /// when the pending queue is at Options::max_pending_sends.
  Expected<MsgId> send(Service service, std::vector<std::uint8_t> payload);

  /// Queue a burst of messages with one bookkeeping pass; the whole batch is
  /// accepted or rejected atomically (Errc::backpressure when it does not
  /// fit under max_pending_sends, payload_too_large if any payload is over
  /// the limit — nothing is queued on failure). With frame packing, a burst
  /// queued together drains in a handful of datagrams per token visit.
  Expected<std::vector<MsgId>> send_batch(Service service,
                                          std::vector<std::vector<std::uint8_t>> payloads);

  /// Fail-stop on behalf of the application layered on this node: one of
  /// its own durable writes failed, so the process must stop before it acts
  /// on state that is not on disk. Counts evs.storage_fail_stops like the
  /// node's own failed persists and crashes the node at the next scheduler
  /// turn, never inside the delivery or configuration callback that saw the
  /// failure, which would tear the node down under its own stack.
  void request_fail_stop(const char* where);

  /// Register the backpressure drain callback: after send() has rejected
  /// with Errc::backpressure, it fires once when the pending queue drains
  /// back to half of max_pending_sends (hysteresis, so producers resuming
  /// at the edge don't thrash between one accepted send and the next
  /// rejection).
  void set_on_send_drain(std::function<void()> h) { drain_handler_ = std::move(h); }

  State state() const { return state_; }
  bool running() const { return state_ != State::Down; }
  ProcessId id() const { return self_; }

  /// The last installed regular configuration.
  const Configuration& config() const { return reg_config_; }

  /// The options the node was constructed with (e.g. payload limits, so an
  /// application layered on the node can size its own payloads to fit).
  const Options& options() const { return opts_; }

  /// The transport's scheduler — virtual time in the simulator, the loop
  /// thread's wall-clock timer wheel live. Lets an application agent run
  /// its own timers in the same time domain as the node's protocol timers.
  Scheduler& scheduler() { return net_.scheduler(); }

  Stats stats() const;
  std::size_t pending_sends() const { return pending_.size(); }

  /// The node's metrics: "evs.*" plus the instruments of its embedded
  /// OrderingCore ("ordering.*") and GatherState ("member.*"). Counters are
  /// cumulative across configuration installs and gather episodes.
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }

  /// Attach (or detach, with nullptr) a span sink. Gather, recovery and
  /// token-rotation episodes are traced as spans while attached; a null
  /// sink costs one pointer test per episode boundary.
  void set_span_sink(obs::SpanSink* sink) { spans_ = sink; }

  // Endpoint:
  void on_packet(const Packet& packet) override;

 private:
  friend struct NodeIntrospect;  // test-only state perturbation (testkit/corrupt)

  // --- state transitions ---
  void install_configuration(RingId new_ring, std::vector<ProcessId> members,
                             const Step6Plan* plan);
  void enter_gather(std::vector<ProcessId> candidates,
                    const std::vector<ProcessId>* carry_fails);
  void adopt_proposal(RingId ring, std::vector<ProcessId> members);
  void try_finish_recovery();
  void recovery_local_plan_and_install(RingId new_ring);

  // --- packet handlers ---
  /// Returns true when the message was accepted into the current ring's
  /// ordering core and a deliver_ready() pass is warranted — on_packet
  /// defers that pass until the whole datagram's frames are absorbed.
  bool handle_regular(RegularMsgView m);
  void handle_token(const TokenMsg& t);
  void handle_join(const JoinMsg& j);
  void handle_form_ring(const FormRingMsg& f);
  void handle_exchange(const ExchangeMsg& e);
  void handle_recovery_msg(const RecoveryMsgMsg& r);
  void handle_recovery_ack(const RecoveryAckMsg& a);
  void handle_beacon(const BeaconMsg& b);
  void handle_token_hold_cancel(const TokenHoldCancelMsg& c);

  // --- timers ---
  /// Schedule a callback that is dropped if this node object has been
  /// destroyed by fire time (a crashed incarnation may be deleted while its
  /// timers are still queued in the scheduler).
  Scheduler::Handle schedule_guarded(SimTime delay, std::function<void()> fn);
  void arm_token_loss_timer();
  void arm_token_retransmit();
  void cancel_token_retransmit();
  // --- token visit and token hold (DESIGN.md "Token hold") ---
  /// One token visit: stamp and broadcast, forward the token (guarded by
  /// the retransmit timer, followed by the token-loss timer), deliver.
  void process_token(const TokenMsg& t);
  /// Keep an arriving, unprocessed token of an idle ring for up to
  /// Options::token_hold_for. Only the representative holds.
  void hold_token(const TokenMsg& t);
  /// (Re)arm the timer that releases the held token after `delay`.
  void arm_hold_timer(SimTime delay);
  /// End the hold (`cause` is "timer", "send" or "cancel") and process the
  /// held token.
  void release_held_token(const char* cause);
  /// Forget a held token, if any, and its timer (crash, gather, a fresher
  /// token).
  void drop_held_token(const char* cause);
  /// After a send was queued into a ring that may be held: multicast a
  /// TokenHoldCancel (and stay awake for the rotations that follow), and
  /// release our own held token if we are the holder.
  void wake_held_ring();
  void beacon_tick(std::uint64_t epoch);
  void join_tick(std::uint64_t epoch);
  void exchange_tick(std::uint64_t epoch);
  void bump_epoch() { ++epoch_; }

  // --- operational helpers ---
  void deliver_ready();
  /// Deliver `msgs` in order in `config`: per-delivery bookkeeping
  /// (metrics, ord advance, trace) for each, then one call of the delivery
  /// handler with the whole batch.
  void deliver_batch(const std::vector<RegularMsgView>& msgs,
                     const Configuration& config);
  /// True if traffic tagged with ring seq `seq` from `sender` must predate
  /// our current regular configuration: ring seqs are monotone per process
  /// (persisted across incarnations), so a member of our installed ring can
  /// never again act on a lower-seq ring. Such packets are delayed
  /// duplicates, not merge signals.
  bool stale_from_member(RingSeq seq, ProcessId sender) const;
  /// Refresh the evs.pending_sends gauge after a pending_ mutation and fire
  /// the drain callback when backpressure hysteresis clears.
  void note_pending_sends();
  void emit_conf_change(const Configuration& config, Ord ord);
  void broadcast(const std::vector<std::uint8_t>& bytes);
  void unicast_frame(ProcessId to, const std::vector<std::uint8_t>& body);
  void snapshot_old_ring();
  void maybe_propose();
  void recovery_round();  ///< rebroadcasts + ack within exchange_tick
  ExchangeMsg make_exchange() const;

  // --- observability helpers ---
  /// Count an open_frame rejection under both the aggregate counter and a
  /// per-cause counter ("evs.rejected_frames.<cause>"). Cold path only.
  void note_frame_reject(Errc cause);
  void span_end(obs::SpanId& id);  ///< end + clear if a sink is attached
  void close_episode_spans();      ///< end any open gather/recovery spans

  // --- persistence ---
  // Every persist is fallible (see storage/stable_store.hpp). The policy,
  // derived from the paper's persist-before-acknowledge ordering:
  //   * step 5.c (persist_recovery_state) failing aborts the completion
  //     acknowledgement — the next exchange tick retries, and the recovery
  //     timeout regathers if the store stays broken (never ack-without-persist);
  //   * any other persist failing is a fail-stop (storage_fail_stop): the
  //     node cannot uphold its durable obligations, so it becomes a crashed
  //     process — exactly the failure mode the protocol already tolerates.
  [[nodiscard]] Status persist_ring_seq();
  [[nodiscard]] Status persist_install(const Configuration& config);
  [[nodiscard]] Status persist_recovery_state();
  [[nodiscard]] Status persist_delivered_meta();
  [[nodiscard]] Status load_persisted();
  /// Stable storage failed under a must-persist write: count it and turn
  /// this node into a failed process (crash), or tear down a partial boot.
  void storage_fail_stop(const char* where);

  /// Volatile protocol state failed an internal consistency check that
  /// cannot be repaired locally (the self-stabilization guards; see DESIGN.md
  /// "State-corruption fault model"). Counts evs.state_fail_stops and turns
  /// the node into a failed process — fail-stop instead of propagating
  /// corrupted state into the agreed total order.
  void protocol_fail_stop(const char* what);

  /// Self-stabilizing repair: ring_seq_ must never trail the installed
  /// regular ring's seq (ring seqs are persisted, monotone per process). A
  /// regressed counter — bit rot, bad restore — would let this node propose
  /// or adopt a ring below one it already delivered in, regressing the
  /// configuration-change total order. Re-derives the floor from reg_config_
  /// and counts evs.ring_seq_repairs. Called wherever ring_seq_ feeds a
  /// staleness or proposal decision.
  void repair_ring_seq();

  /// Consistency of the snapshotted old-ring backlog fields, checked before
  /// they are frozen into an ExchangeMsg: the same invariants read_exchange
  /// enforces on the wire, so a corrupted node fail-stops here rather than
  /// broadcasting exchanges every peer rejects (a cluster-wide livelock).
  bool old_state_consistent() const;

  // identity / environment
  ProcessId self_;
  Transport& net_;
  StableStore& store_;
  TraceLog* trace_;
  Options opts_;

  State state_{State::Down};
  std::uint64_t epoch_{0};  ///< invalidates stale timer callbacks
  /// Lifetime token observed (weakly) by every scheduled callback.
  std::shared_ptr<char> alive_{std::make_shared<char>(0)};

  // ring / ordering (Operational)
  std::optional<OrderingCore> core_;
  Configuration reg_config_;  ///< last installed regular configuration
  RingSeq ring_seq_{0};       ///< highest ring seq ever seen/used (persisted)
  std::deque<PendingSend> pending_;
  std::uint64_t msg_counter_{0};
  Scheduler::Handle token_loss_timer_{};
  // Token retransmission state: the sealed frame of the last token we
  // forwarded, resent while no fresh token has come back around the ring.
  std::vector<std::uint8_t> last_token_frame_;
  int token_retransmits_left_{0};
  Scheduler::Handle token_retransmit_timer_{};
  // Token hold: the representative's held (unprocessed) token and the timer
  // that releases it after Options::token_hold_for.
  std::optional<TokenMsg> held_token_;
  Scheduler::Handle hold_timer_{};
  /// A release for a local send is scheduled (sends release from a fresh
  /// scheduler turn, never inside send()).
  bool send_release_pending_{false};
  /// Representative: a cancel arrived while it was not holding (the token
  /// was still on its way), so the next arrival is not held.
  bool hold_cancel_seen_{false};
  /// Member: a cancel went out since our last token visit.
  bool hold_cancel_sent_{false};

  // old-ring backlog (survives into Gather/Recovery; cleared on install).
  // old_msgs_ holds only bodies above old_gc_upto_; old_received_ still
  // summarizes everything, including the GC'd prefix.
  RingId old_ring_{};
  std::map<SeqNum, RegularMsg> old_msgs_;
  SeqSet old_received_;
  SeqNum old_safe_upto_{0};
  SeqNum old_delivered_upto_{0};
  SeqNum old_gc_upto_{0};
  SeqSet old_delivered_extra_;
  std::vector<ProcessId> obligation_set_;  // sorted

  // gather
  std::optional<GatherState> gather_;
  std::uint64_t episode_{0};
  SimTime consensus_since_{0};  ///< when we first saw consensus (awaiting FormRing)

  // recovery
  std::optional<RecoveryEngine> recovery_;
  std::optional<ExchangeMsg> my_exchange_;  ///< frozen for this proposal
  bool acked_complete_{false};
  SimTime recovery_deadline_{0};
  std::vector<RegularMsg> new_ring_buffer_;       ///< paper step 2 buffering
  std::optional<TokenMsg> buffered_token_;

  /// Ord of this incarnation's most recent ord-carrying event; send events
  /// are assigned ord_send_after(last_ord_).
  Ord last_ord_{};

  // callbacks
  DeliverBatchHandler deliver_handler_;  ///< the one delivery slot
  ConfigHandler config_handler_;         ///< the one configuration slot
  std::function<void()> drain_handler_;
  bool backpressured_{false};  ///< a send was rejected since the last drain

  // observability. Met caches instrument handles so the hot paths do one
  // add with no name lookup; the registry owns the values.
  struct Met {
    obs::Counter& sent;
    obs::Counter& delivered;
    obs::Counter& delivered_transitional;
    obs::Counter& conf_changes;
    obs::Counter& gathers;
    obs::Counter& recoveries;
    obs::Counter& discarded;
    obs::Counter& tokens_handled;
    obs::Counter& rejected_frames;
    obs::Counter& rejected_decode;
    obs::Counter& stale_rejected;
    obs::Counter& duplicate_regulars;
    obs::Counter& stale_tokens;
    obs::Counter& token_retransmits;
    obs::Counter& send_errors;
    obs::Counter& backpressure_rejections;
    obs::Counter& datagrams_packed;   ///< net.datagrams_packed
    obs::Counter& storage_fail_stops;
    obs::Counter& persist_retries;
    obs::Counter& state_fail_stops;
    obs::Counter& ring_seq_repairs;
    obs::Counter& token_holds;         ///< idle-ring holds begun (representative)
    obs::Counter& token_hold_cancels;  ///< TokenHoldCancel messages multicast
    obs::Gauge& pending_sends;          ///< current send-queue depth
    obs::Histogram& gather_us;          ///< enter_gather -> adopted proposal
    obs::Histogram& recovery_us;        ///< adopted proposal -> install
    obs::Histogram& token_rotation_us;  ///< token forward -> fresh return
    obs::Histogram& deliver_batch_size; ///< messages per deliver_ready pass
    explicit Met(obs::MetricsRegistry& r);
  };

  obs::MetricsRegistry metrics_;
  Met met_{metrics_};
  obs::SpanSink* spans_{nullptr};
  obs::SpanId gather_span_{0};
  obs::SpanId recovery_span_{0};
  obs::SpanId exchange_span_{0};     ///< child: paper steps 3-4
  obs::SpanId rebroadcast_span_{0};  ///< child: paper step 5
  obs::SpanId rotation_span_{0};     ///< current token rotation
  obs::SpanId hold_span_{0};         ///< current token hold
  SimTime gather_since_{0};    ///< 0 = no gather episode in flight
  SimTime recovery_since_{0};  ///< 0 = no recovery episode in flight
  SimTime rotation_since_{0};  ///< 0 = no token rotation in flight
};

const char* to_string(EvsNode::State s);

/// Stable-storage key space of ring r's message backlog
/// ("bmsg/<ring.seq>.<ring.rep>/<seq>", every number fixed-width zero-padded
/// hex). Exposed so tests can pin the prefix-freedom property: the prefix of
/// one ring is never a string prefix of another's, so garbage-collecting
/// configuration N's backlog cannot erase configuration N0's records.
std::string backlog_prefix(const RingId& ring);
std::string backlog_msg_key(const RingId& ring, SeqNum seq);

}  // namespace evs
