// State-corruption fuzzing: perturb a victim node's volatile protocol state
// and check that the system either ejects the victim (it fail-stops, or its
// peers reconfigure around it) or reconverges spec-clean.
//
// "Practically-Self-Stabilizing Virtual Synchrony" (see PAPERS.md) argues
// the interesting failure class for group communication is *arbitrary
// corrupted volatile state* — stale ring identifiers, counters near
// wraparound, poisoned bookkeeping sets — not just crash and partition.
// This header is the test-side half of that claim: NodeIntrospect is a
// narrow, friend-based hook into the private state of EvsNode /
// GatherState / OrderingCore (test-only; nothing in src/ outside testkit
// includes it), and apply_corruption() implements one mutation per
// corruption class. The defenses under test live in the protocol itself:
// decode-time plausibility bounds (kMaxRingSeq), ring-seq repair
// (evs.ring_seq_repairs), exchange normalization, and the
// state_consistent() fail-stop guards (evs.state_fail_stops). DESIGN.md
// "State-corruption fault model" maps each class to its defense.
#pragma once

#include <array>
#include <cstdint>

#include "evs/node.hpp"
#include "member/membership.hpp"
#include "totem/ordering.hpp"
#include "util/rng.hpp"

namespace evs {

/// Test-only access to private protocol state. Every accessor returns a
/// reference into the live object; mutating through it models bit rot / a
/// wild write, not any legal protocol transition.
struct NodeIntrospect {
  static RingSeq& ring_seq(EvsNode& n) { return n.ring_seq_; }
  static std::vector<ProcessId>& obligation_set(EvsNode& n) { return n.obligation_set_; }
  static SeqNum& old_gc_upto(EvsNode& n) { return n.old_gc_upto_; }
  static SeqNum old_delivered_upto(const EvsNode& n) { return n.old_delivered_upto_; }
  static GatherState* gather(EvsNode& n) {
    return n.gather_.has_value() ? &*n.gather_ : nullptr;
  }
  static OrderingCore* core(EvsNode& n) {
    return n.core_.has_value() ? &*n.core_ : nullptr;
  }

  static RingSeq& max_ring_seq_seen(GatherState& g) { return g.max_ring_seq_seen_; }

  /// Model a stalled holder or a late hold timer: the token `n` holds is
  /// released at `release_at` instead of when its hold timer fires. Returns
  /// false when `n` holds nothing.
  static bool reschedule_held_release(EvsNode& n, SimTime release_at) {
    if (!n.held_token_) return false;
    const SimTime now = n.net_.scheduler().now();
    n.arm_hold_timer(release_at > now ? release_at - now : 0);
    return true;
  }

  static SeqNum& gc_upto(OrderingCore& c) { return c.gc_upto_; }
  static std::uint32_t& prev_visit_broadcasts(OrderingCore& c) {
    return c.prev_visit_broadcasts_;
  }
};

/// One corruption class per mutation the fuzzer knows how to make. Each maps
/// to a taxonomy entry in DESIGN.md "State-corruption fault model".
enum class CorruptionKind {
  RingSeqRegression,   ///< ring_seq_ drops below the installed ring's seq
  RingSeqWraparound,   ///< ring_seq_ jumps to ~UINT64_MAX (past kMaxRingSeq)
  StaleMaxRingSeq,     ///< gather's max_ring_seq_seen_ poisoned past the bound
  PoisonedObligations, ///< obligation_set_ duplicated / unsorted / bogus pids
  CorruptGcUpto,       ///< GC watermark regressed or pushed past delivery
  CorruptFcc,          ///< flow-control visit counter blown up
};

inline constexpr std::array<CorruptionKind, 6> kAllCorruptionKinds{
    CorruptionKind::RingSeqRegression,  CorruptionKind::RingSeqWraparound,
    CorruptionKind::StaleMaxRingSeq,    CorruptionKind::PoisonedObligations,
    CorruptionKind::CorruptGcUpto,      CorruptionKind::CorruptFcc,
};

const char* to_string(CorruptionKind k);

/// Mutate `victim`'s volatile state per `kind`, drawing magnitudes from
/// `rng`. Returns false when the victim's current state offers nothing to
/// corrupt for this class (e.g. StaleMaxRingSeq outside a gather, GC
/// watermark still zero) — the caller picks another class or skips the
/// trial. Never touches stable storage and never performs a legal protocol
/// action: a `true` return means the victim now holds state no correct
/// execution could have produced.
bool apply_corruption(EvsNode& victim, CorruptionKind kind, Rng& rng);

}  // namespace evs
