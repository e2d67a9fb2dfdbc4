#include "totem/ordering.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/log.hpp"

namespace evs {

OrderingCore::Met::Met(obs::MetricsRegistry& r)
    : duplicates_ignored(r.counter("ordering.duplicates_ignored")),
      retransmits_sent(r.counter("ordering.retransmits_sent")),
      rtr_capped(r.counter("ordering.rtr_capped")),
      fcc_clamped(r.counter("ordering.fcc_clamped")),
      tokens_seen(r.counter("ordering.tokens_seen")),
      gc_reclaimed(r.counter("ordering.gc_reclaimed")),
      store_msgs(r.gauge("ordering.store_msgs")),
      store_bytes(r.gauge("ordering.store_bytes")),
      store_msgs_peak(r.gauge("ordering.store_msgs_peak")),
      store_bytes_peak(r.gauge("ordering.store_bytes_peak")) {}

OrderingCore::OrderingCore(RingId ring, std::vector<ProcessId> members, ProcessId self,
                           Options options, obs::MetricsRegistry* metrics)
    : ring_(ring),
      members_(std::move(members)),
      self_(self),
      options_(options),
      own_metrics_(metrics == nullptr ? std::make_unique<obs::MetricsRegistry>()
                                      : nullptr),
      met_(metrics == nullptr ? *own_metrics_ : *metrics) {
  EVS_ASSERT(std::is_sorted(members_.begin(), members_.end()));
  EVS_ASSERT_MSG(is_member(self_), "process must be a member of its own ring");
}

OrderingCore::Stats OrderingCore::stats() const {
  Stats s;
  s.duplicates_ignored = met_.duplicates_ignored.value();
  s.retransmits_sent = met_.retransmits_sent.value();
  s.rtr_capped = met_.rtr_capped.value();
  s.fcc_clamped = met_.fcc_clamped.value();
  s.gc_reclaimed = met_.gc_reclaimed.value();
  return s;
}

void OrderingCore::track_store_insert(const RegularMsgView& m) {
  // Payload bytes, not sizeof: the count must be platform-neutral so obs
  // snapshots stay byte-identical across builds.
  store_bytes_ += m.payload.size();
  const auto msgs = static_cast<std::int64_t>(store_.size());
  const auto bytes = static_cast<std::int64_t>(store_bytes_);
  met_.store_msgs.set(msgs);
  met_.store_bytes.set(bytes);
  if (met_.store_msgs_peak.value() < msgs) met_.store_msgs_peak.set(msgs);
  if (met_.store_bytes_peak.value() < bytes) met_.store_bytes_peak.set(bytes);
}

void OrderingCore::collect_garbage() {
  // Reclaim bodies at or below min(safe_upto_, delivered_upto_): the safety
  // horizon proves every member received them (no legitimate rtr can name
  // them, and recovery's transitional peers hold them too — see DESIGN.md),
  // and delivery means we will never read them again ourselves. received_
  // keeps the interval summary, so duplicates stay recognizable and the
  // Exchange received-set is unchanged.
  const SeqNum horizon = std::min(safe_upto_, delivered_upto_);
  if (horizon <= gc_upto_) return;
  std::uint64_t freed = 0;
  for (SeqNum s = gc_upto_ + 1; s <= horizon; ++s) {
    auto it = store_.find(s);
    EVS_ASSERT(it != store_.end());  // delivered contiguously => body present
    store_bytes_ -= it->second.payload.size();
    store_.erase(it);
    ++freed;
  }
  gc_upto_ = horizon;
  met_.gc_reclaimed.inc(freed);
  met_.store_msgs.set(static_cast<std::int64_t>(store_.size()));
  met_.store_bytes.set(static_cast<std::int64_t>(store_bytes_));
}

ProcessId OrderingCore::next_in_ring() const {
  auto it = std::lower_bound(members_.begin(), members_.end(), self_);
  EVS_ASSERT(it != members_.end() && *it == self_);
  ++it;
  return it == members_.end() ? members_.front() : *it;
}

bool OrderingCore::is_member(ProcessId p) const {
  return std::binary_search(members_.begin(), members_.end(), p);
}

bool OrderingCore::on_regular(RegularMsgView m) {
  EVS_ASSERT(m.ring == ring_);
  EVS_ASSERT(m.seq >= 1);
  if (received_.contains(m.seq)) {
    met_.duplicates_ignored.inc();
    return false;
  }
  received_.insert(m.seq);
  const auto it = store_.emplace(m.seq, std::move(m)).first;
  track_store_insert(it->second);
  return true;
}

bool OrderingCore::token_is_stale(const TokenMsg& token) const {
  // A legitimate token's seq is monotone over the ring's lifetime: members
  // only ever raise it. One that regresses below what we have observed is a
  // stale duplicate (or a forgery) even if its rotation looks fresh.
  return token.ring != ring_ ||
         (seen_token_ &&
          (token.rotation <= last_rotation_ || token.seq < highest_assigned_));
}

OrderingCore::TokenResult OrderingCore::on_token(const TokenMsg& token,
                                                 std::deque<PendingSend>& pending) {
  EVS_ASSERT(!token_is_stale(token));
  ++tokens_seen_;
  met_.tokens_seen.inc();
  TokenResult result;
  TokenMsg out = token;

  // 1. Service retransmission requests we can satisfy. Walk the request set
  // interval-wise against received_ above the GC horizon — exactly what
  // store_ holds — so a forged token carrying a huge rtr range costs work
  // proportional to intervals touched and messages actually rebroadcast,
  // never to the range width.
  int retransmitted = 0;
  std::vector<SeqNum> served;
  for (const auto& req : token.rtr.intervals()) {
    if (retransmitted >= options_.max_retransmit_per_token) break;
    if (req.hi <= gc_upto_) continue;
    const SeqNum lo = std::max(req.lo, gc_upto_ + 1);
    for (const auto& run : received_.intersection_intervals(lo, req.hi)) {
      if (retransmitted >= options_.max_retransmit_per_token) break;
      for (SeqNum s = run.lo;; ++s) {
        auto it = store_.find(s);
        EVS_ASSERT(it != store_.end());  // store_ == received_ above gc_upto_
        result.to_broadcast.push_back(it->second);
        served.push_back(s);
        ++retransmitted;
        met_.retransmits_sent.inc();
        if (s == run.hi || retransmitted >= options_.max_retransmit_per_token) break;
      }
    }
  }
  for (SeqNum s : served) out.rtr.erase(s);
  // Scrub requests at or below our GC horizon instead of leaving them to
  // circulate: the horizon proves every ring member received those seqs, so
  // such entries can only come from corruption or forgery, and left alone
  // they would permanently occupy max_rtr_entries capacity.
  if (!out.rtr.empty() && out.rtr.min() <= gc_upto_) {
    SeqSet scrubbed;
    for (const auto& iv : out.rtr.intervals()) {
      if (iv.hi <= gc_upto_) continue;
      scrubbed.insert_range(std::max(iv.lo, gc_upto_ + 1), iv.hi);
    }
    out.rtr = std::move(scrubbed);
  }

  // 2. Request what we are missing, hole-interval-wise, bounded so a
  // corrupted-but-plausible token (huge seq) cannot balloon the request set
  // or buy per-element work; deferred holes wait a rotation.
  for (const auto& hole : received_.missing_intervals(1, out.seq)) {
    const std::uint64_t have = out.rtr.size();
    const std::uint64_t room =
        options_.max_rtr_entries > have ? options_.max_rtr_entries - have : 0;
    if (room == 0) {
      met_.rtr_capped.inc();
      break;
    }
    if (hole.hi - hole.lo >= room) {  // hole wider than remaining room
      out.rtr.insert_range(hole.lo, hole.lo + room - 1);
      met_.rtr_capped.inc();
      break;
    }
    out.rtr.insert_range(hole.lo, hole.hi);
  }

  // 3. Stamp and broadcast pending application messages. The per-visit cap
  // is narrowed by the ring-wide flow-control window (Totem fcc): the token
  // carries the broadcast count of the last full rotation, and seq - aru is
  // the backlog not yet acknowledged by everyone. Budgeting against both
  // keeps every member's resident store O(window) no matter how fast the
  // application produces.
  //
  // The inbound count is clamped to the largest value a healthy ring can
  // legitimately accumulate: every member adds at most max_new + max_rtr
  // broadcasts per visit, so fcc > members * per_visit_max can only come
  // from corruption, a forged token, or stale state leaking across a
  // configuration change. Without the clamp such a value is sticky — the
  // only decay is subtracting prev_visit_broadcasts_, which is 0 exactly
  // when the budget pinned to 0 — so one bad token would silence the ring
  // forever. With it, the excess is discarded and the window recovers
  // within a single visit.
  const std::uint64_t per_visit_max =
      static_cast<std::uint64_t>(std::max(options_.max_new_per_token, 0)) +
      static_cast<std::uint64_t>(std::max(options_.max_retransmit_per_token, 0));
  const std::uint64_t fcc_headroom =
      per_visit_max < UINT32_MAX ? UINT32_MAX - per_visit_max : 0;
  const std::uint64_t fcc_ceiling =
      std::min<std::uint64_t>(members_.size() * per_visit_max, fcc_headroom);
  std::uint64_t fcc_in =
      out.fcc > prev_visit_broadcasts_ ? out.fcc - prev_visit_broadcasts_ : 0;
  if (fcc_in > fcc_ceiling) {
    fcc_in = fcc_ceiling;
    met_.fcc_clamped.inc();
  }
  const std::uint64_t window = options_.flow_control_window;
  const std::uint64_t unacked = out.seq >= out.aru ? out.seq - out.aru : 0;
  std::uint64_t budget = options_.max_new_per_token < 0
                             ? 0
                             : static_cast<std::uint64_t>(options_.max_new_per_token);
  budget = std::min(budget, window > fcc_in ? window - fcc_in : 0);
  budget = std::min(budget, window > unacked ? window - unacked : 0);
  std::uint64_t sent = 0;
  while (!pending.empty() && sent < budget) {
    PendingSend p = std::move(pending.front());
    pending.pop_front();
    RegularMsg m;
    m.ring = ring_;
    m.seq = ++out.seq;
    m.id = p.id;
    m.service = p.service;
    m.payload = std::move(p.payload);
    // make_view moves the payload into a shared buffer once; the store slot,
    // new_messages and to_broadcast all alias it from here on.
    RegularMsgView v = make_view(std::move(m));
    // We hold our own message immediately; the network loopback would also
    // deliver it, but recording it now keeps contig() honest even if the
    // loopback packet is still in flight when the token moves on.
    on_regular(v);
    result.new_messages.push_back(v);
    result.to_broadcast.push_back(std::move(v));
    ++sent;
  }
  const auto this_visit =
      static_cast<std::uint32_t>(retransmitted) + static_cast<std::uint32_t>(sent);
  // fcc_in <= fcc_ceiling and this_visit <= per_visit_max, both far below
  // u32 range for any validated option set — no saturation path (the old
  // UINT32_MAX saturation was itself a pin: subtraction decay could never
  // bring it back down).
  out.fcc = static_cast<std::uint32_t>(fcc_in + this_visit);
  prev_visit_broadcasts_ = this_visit;
  // token_is_stale rejected any seq regression, and stamping only raised
  // out.seq, so a single assignment here maintains the monotone invariant.
  EVS_ASSERT(out.seq >= highest_assigned_);
  highest_assigned_ = out.seq;

  // 4. Update aru.
  const SeqNum my_contig = contig();
  const ProcessId unset{};
  if (my_contig < out.aru) {
    out.aru = my_contig;
    out.aru_setter = self_;
  } else if (out.aru_setter == self_ || out.aru_setter == unset) {
    out.aru = my_contig;
    out.aru_setter = my_contig < out.seq ? self_ : unset;
  }

  // 5. Safety horizon: everything at or below the minimum of the aru we see
  // now and the aru we saw on our previous visit has completed a full
  // rotation acknowledged by every member.
  if (seen_token_) {
    safe_upto_ = std::max(safe_upto_, std::min(prev_visit_aru_, out.aru));
  }
  if (members_.size() == 1) {
    // Singleton ring: our own receipt is everyone's receipt.
    safe_upto_ = std::max(safe_upto_, my_contig);
  }
  prev_visit_aru_ = out.aru;
  seen_token_ = true;

  // 6. Idle rule for the token hold (see may_hold() for the count).
  const bool quiet = result.to_broadcast.empty() && pending.empty() && out.rtr.empty() &&
                     out.aru == out.seq;
  if (!quiet) {
    quiet_visits_ = 0;
  } else if (quiet_visits_ > 0 && quiet_seq_ == out.seq) {
    quiet_visits_ = std::min(quiet_visits_ + 1, kQuietVisitsBeforeHold);
  } else {
    quiet_visits_ = 1;
  }
  quiet_seq_ = out.seq;

  out.rotation = token.rotation + 1;
  last_rotation_ = token.rotation;
  result.token_out = out;
  collect_garbage();
  return result;
}

std::vector<RegularMsgView> OrderingCore::drain_deliverable() {
  std::vector<RegularMsgView> out;
  while (true) {
    const SeqNum next = delivered_upto_ + 1;
    auto it = store_.find(next);
    if (it == store_.end()) break;
    if (it->second.service == Service::Safe && next > safe_upto_ &&
        !options_.deliver_unsafe) {
      break;
    }
    out.push_back(it->second);
    delivered_upto_ = next;
  }
  collect_garbage();
  return out;
}

const RegularMsgView* OrderingCore::get(SeqNum seq) const {
  auto it = store_.find(seq);
  return it == store_.end() ? nullptr : &it->second;
}

std::vector<RegularMsg> OrderingCore::all_messages() const {
  std::vector<RegularMsg> out;
  out.reserve(store_.size());
  for (const auto& [seq, m] : store_) out.push_back(m.to_owned());
  std::sort(out.begin(), out.end(),
            [](const RegularMsg& a, const RegularMsg& b) { return a.seq < b.seq; });
  return out;
}

}  // namespace evs
