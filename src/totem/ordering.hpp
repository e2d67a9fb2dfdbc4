// OrderingCore: per-ring total ordering at one process (Totem single-ring
// protocol, simplified but faithful).
//
// A token circulates around the ring members (sorted by process id). The
// token carries the highest assigned sequence number (`seq`), the
// all-received-up-to value (`aru`) and a retransmission request set (`rtr`).
// On each visit a process:
//   1. rebroadcasts requested messages it holds and removes them from rtr,
//   2. adds its own missing sequence numbers to rtr,
//   3. stamps pending application messages with seq+1.. and broadcasts them,
//   4. updates aru: lowers it to its own contiguous prefix if behind,
//      or raises it if it was the process that had lowered it (or no one had),
//   5. computes safety: seqs <= min(aru seen on this visit, aru seen on the
//      previous visit) have been received by *every* ring member — the token
//      made a full rotation in between without anyone lowering aru below it.
//      That "everyone acknowledged receipt" is the paper's condition for
//      safe delivery.
//   6. counts its consecutive quiet visits, from which the ring's
//      representative decides whether it may hold the token of an idle ring
//      (may_hold(); DESIGN.md "Token hold").
//
// Delivery is strictly in sequence order: an agreed message is deliverable
// when it heads the contiguous prefix; a safe message additionally waits for
// the safety horizon. Because a sender stamps new messages with sequence
// numbers above everything it has received, the total order preserves
// causality (Section 2: agreed delivery preserves causal order).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "evs/config.hpp"
#include "obs/metrics.hpp"
#include "totem/messages.hpp"
#include "util/seq_set.hpp"
#include "util/types.hpp"

namespace evs {

/// An application message queued while waiting for the token.
struct PendingSend {
  MsgId id;
  Service service{Service::Agreed};
  std::vector<std::uint8_t> payload;
};

class OrderingCore {
 public:
  /// Hot-path results are non-owning views: each pins the buffer its payload
  /// lives in (the received datagram, or the shared buffer make_view built
  /// for a locally-stamped message), so handing them around copies spans and
  /// refcounts, never payload bytes.
  struct TokenResult {
    std::vector<RegularMsgView> to_broadcast;  ///< retransmissions + new messages
    std::vector<RegularMsgView> new_messages;  ///< subset of to_broadcast that is new
    TokenMsg token_out;                        ///< forward this to the next member
  };

  struct Options {
    int max_new_per_token{64};
    int max_retransmit_per_token{64};
    /// Upper bound on the rtr set size. A corrupted-but-plausible token or
    /// a heavily lossy ring could otherwise grow the request set without
    /// bound; excess holes simply wait for a later rotation.
    std::size_t max_rtr_entries{1024};
    /// Ring-wide flow-control window (Totem fcc): new messages are budgeted
    /// against both `window - token.fcc` (broadcasts during the last
    /// rotation) and `window - (seq - aru)` (messages not yet acknowledged
    /// by everyone), so backlog anywhere on the ring throttles all senders.
    /// Must be >= max_new_per_token or the per-visit cap can never be met.
    std::uint32_t flow_control_window{1024};
    /// Fault injection (tests only): deliver safe messages without waiting
    /// for the acknowledgment horizon.
    bool deliver_unsafe{false};
  };

  /// Snapshot of the "ordering.*" counters (assembled from the registry).
  struct Stats {
    std::uint64_t duplicates_ignored{0};  ///< duplicate regular messages
    std::uint64_t retransmits_sent{0};    ///< rtr requests we satisfied
    std::uint64_t rtr_capped{0};          ///< holes deferred by max_rtr_entries
    std::uint64_t fcc_clamped{0};         ///< inbound fcc above the ring ceiling
    std::uint64_t gc_reclaimed{0};        ///< message bodies freed by GC
  };

  /// `metrics` receives the "ordering.*" instruments; pass the owning
  /// EvsNode's registry so counters accumulate across ring installs. When
  /// null the core keeps a private registry (standalone tests).
  OrderingCore(RingId ring, std::vector<ProcessId> members, ProcessId self)
      : OrderingCore(ring, std::move(members), self, Options{}) {}
  OrderingCore(RingId ring, std::vector<ProcessId> members, ProcessId self,
               Options options, obs::MetricsRegistry* metrics = nullptr);

  const RingId& ring() const { return ring_; }
  const std::vector<ProcessId>& members() const { return members_; }
  ProcessId self() const { return self_; }
  ProcessId next_in_ring() const;
  bool is_member(ProcessId p) const;

  /// Store a received (or self-broadcast) regular message for this ring.
  /// Duplicates are ignored. Returns true if the message was new. The view's
  /// payload is NOT copied: the store keeps the span plus a refcount on its
  /// owner, so the backing datagram stays pinned while any stored (or
  /// outstanding) view needs it.
  bool on_regular(RegularMsgView m);

  /// Owning compatibility overload (cold paths: recovery replay, tests).
  /// Wraps the message via make_view — payload moves, no byte copy for an
  /// rvalue; an lvalue pays one copy here instead of one per store slot.
  bool on_regular(RegularMsg m) { return on_regular(make_view(std::move(m))); }

  /// Process the token; stamps messages from `pending` (consumed front-first)
  /// and returns what to broadcast plus the token to forward. Returns
  /// nullopt-equivalent empty result if the token is stale (old rotation).
  TokenResult on_token(const TokenMsg& token, std::deque<PendingSend>& pending);

  /// True if the given token is a stale duplicate for this ring.
  bool token_is_stale(const TokenMsg& token) const;

  /// Messages that have become deliverable, in total order. Each call
  /// returns only newly deliverable messages. The returned views stay valid
  /// even after collect_garbage() erases their store entries: erasing drops
  /// the store's refcount on the datagram, not the datagram itself.
  std::vector<RegularMsgView> drain_deliverable();

  bool has(SeqNum seq) const { return store_.count(seq) > 0; }
  const RegularMsgView* get(SeqNum seq) const;

  /// Contiguous all-received-up-to prefix.
  SeqNum contig() const { return received_.contiguous_from(0); }
  SeqNum safe_upto() const { return safe_upto_; }
  SeqNum delivered_upto() const { return delivered_upto_; }
  SeqNum highest_assigned() const { return highest_assigned_; }
  const SeqSet& received() const { return received_; }

  /// Safety-horizon GC watermark: bodies for seqs <= gc_upto() were freed
  /// after min(safe_upto_, delivered_upto_) passed them — every member holds
  /// (and we delivered) them, so no retransmission or recovery rebroadcast
  /// can legitimately need them. `received_` keeps the interval summary.
  SeqNum gc_upto() const { return gc_upto_; }

  /// Resident message bodies / payload bytes (post-GC), for memory bounds.
  std::size_t store_size() const { return store_.size(); }
  std::uint64_t store_bytes() const { return store_bytes_; }

  /// Messages still held in body form for this ring (used by the recovery
  /// snapshot). After GC this is the suffix above gc_upto(), not the full
  /// backlog — recovery carries gc_upto alongside it.
  std::vector<RegularMsg> all_messages() const;

  /// Idle rule for the token hold (DESIGN.md "Token hold"). A visit is
  /// *quiet* when it broadcast nothing, left nothing pending and forwarded
  /// an empty rtr with aru == seq; quiet_visits() counts this process's
  /// consecutive quiet visits at one unchanged seq.
  ///
  /// Claim: if the representative R made kQuietVisitsBeforeHold quiet visits
  /// at seq S and the token now arriving carries seq == aru == S and no
  /// rtr, every member has delivered everything up to S, so holding this
  /// token before processing it delays no delivery.
  ///
  /// Proof. A member lowers aru below seq only when its own prefix is
  /// shorter, and only that member raises it again (step 4), at its next
  /// visit. So a token that leaves R with aru == seq == S and comes back
  /// with aru == seq == S proves every member forwarded aru == S with
  /// nothing stamped, requested or rebroadcast in between: each of them made
  /// a quiet visit. Call R's quiet visits v1 and v2 and the arrival a3. Each
  /// member's visits in the rotations v1->v2 and v2->a3 forwarded aru == S,
  /// so at the second of them min(prev_visit_aru_, out.aru) == S (step 5)
  /// and the member delivered up to S; R did so at v2. a3 is the first
  /// moment R knows all of that, so the count is 2. In a one-member ring a
  /// visit's own receipt is everyone's receipt, so one quiet visit suffices.
  ///
  /// The same two rotations show that when R holds, every other member's
  /// last visit was at least its second consecutive quiet one, so
  /// ring_may_be_held() never misses a held token.
  ///
  /// Any larger count is as safe, and we wait for 16, as Corosync waits
  /// seqno_unchanged_const rotations: a busy ring's brief lulls must not
  /// hold, because the first hop into a worker that slept for milliseconds
  /// pays a thread wake-up with a long tail. Measured on live UDP (e2e_bench,
  /// 4-vCPU VM, 18 s runs): holding after 2 quiet visits took
  /// ring_agreed_open commit p99 from 426 to 669 us (8 s runs); after 8,
  /// kv_ycsb_a_zipf (a put per ring about every millisecond) read commit p99
  /// 1,268 -> 1,615 us (medians of 5 pairs, higher in 5 of 5). After 16 its
  /// rings seldom hold (CPU per op 326 -> 318 us) and p99 read 1,264 ->
  /// 1,151 us (10 pairs), while kv_ycsb_b_partition still holds between its
  /// puts (CPU per op 327 -> 129 us over 9 pairs; 113 us after 8).
  static constexpr int kQuietVisitsBeforeHold = 16;

  int quiet_visits() const { return quiet_visits_; }
  /// The representative may hold `token` unprocessed (see above). The
  /// caller checks that nothing of its own is pending and that the token
  /// is not stale.
  bool may_hold(const TokenMsg& token) const {
    return quiet_visits_ >= quiet_visits_before_hold() && token.seq == quiet_seq_ &&
           token.aru == token.seq && token.rtr.empty();
  }
  /// The representative may be holding the token now: a member with
  /// something to send wakes it with a TokenHoldCancel.
  bool ring_may_be_held() const { return quiet_visits_ >= quiet_visits_before_hold(); }

  std::uint64_t tokens_seen() const { return tokens_seen_; }
  Stats stats() const;

  /// Internal-invariant audit for the self-stabilization guards (see
  /// DESIGN.md "State-corruption fault model"): delivery never outruns the
  /// contiguous received prefix, GC never outruns min(safe, delivered), and
  /// every un-GC'd received seq still has its body. Cheap (no store walk);
  /// the owning EvsNode checks it before acting on a token or delivering,
  /// and fail-stops on violation instead of propagating corrupted counters
  /// into the shared token or the agreed order.
  bool state_consistent() const {
    if (delivered_upto_ > received_.contiguous_from(0)) return false;
    if (gc_upto_ > safe_upto_ || gc_upto_ > delivered_upto_) return false;
    // Spot-check the store/GC boundary: a regressed gc_upto_ claims the
    // body just above it is still resident when it was in fact reclaimed.
    if (received_.contains(gc_upto_ + 1) && store_.count(gc_upto_ + 1) == 0) {
      return false;
    }
    return true;
  }

 private:
  friend struct NodeIntrospect;  // test-only state perturbation (testkit/corrupt)
  struct Met {
    obs::Counter& duplicates_ignored;
    obs::Counter& retransmits_sent;
    obs::Counter& rtr_capped;
    obs::Counter& fcc_clamped;
    obs::Counter& tokens_seen;
    obs::Counter& gc_reclaimed;
    obs::Gauge& store_msgs;        ///< resident bodies (current)
    obs::Gauge& store_bytes;       ///< resident payload bytes (current)
    obs::Gauge& store_msgs_peak;   ///< high-water mark, monotone
    obs::Gauge& store_bytes_peak;  ///< high-water mark, monotone
    explicit Met(obs::MetricsRegistry& r);
  };

  int quiet_visits_before_hold() const {
    return members_.size() == 1 ? 1 : kQuietVisitsBeforeHold;
  }
  void track_store_insert(const RegularMsgView& m);
  void collect_garbage();

  RingId ring_;
  std::vector<ProcessId> members_;  // sorted
  ProcessId self_;
  Options options_;
  std::unique_ptr<obs::MetricsRegistry> own_metrics_;  ///< when none was shared
  Met met_;

  // received_ minus [1, gc_upto_]. Values are views: the map slot holds a
  // span plus a refcount pinning the backing datagram. One packed datagram
  // may back several slots (and stays resident until the last one is GC'd),
  // so store_bytes_ counts payload bytes, not pinned buffer bytes.
  std::unordered_map<SeqNum, RegularMsgView> store_;
  SeqSet received_;
  SeqNum delivered_upto_{0};
  SeqNum safe_upto_{0};
  SeqNum gc_upto_{0};            // bodies <= this were reclaimed
  std::uint64_t store_bytes_{0};  // resident payload bytes (platform-neutral)
  SeqNum highest_assigned_{0};   // highest token.seq observed
  SeqNum prev_visit_aru_{0};
  std::uint32_t prev_visit_broadcasts_{0};  // our fcc contribution last visit
  bool seen_token_{false};
  std::uint64_t last_rotation_{0};
  std::uint64_t tokens_seen_{0};  ///< this ring only (counter is cumulative)
  int quiet_visits_{0};           ///< consecutive quiet visits, see may_hold()
  SeqNum quiet_seq_{0};           ///< the token seq those quiet visits saw
};

}  // namespace evs
