// Wire-level protocol messages.
//
// Nine message kinds cross the network:
//   Regular         - an application message with its ring sequence number
//   Token           - the circulating ordering token (unicast around the ring)
//   Join            - membership gather: sender's candidate and fail sets
//   FormRing        - representative's proposal of a new ring (membership consensus)
//   Exchange        - EVS recovery step 3: a member's old-ring state summary
//   RecoveryMsg     - EVS recovery step 5: rebroadcast of an old-ring message
//   RecoveryAck     - EVS recovery step 5: receiver's updated received-set
//   Beacon          - periodic presence announcement (merge detection)
//   TokenHoldCancel - a member with something to send wakes the idle ring's
//                     representative, which is holding the token
// Every kind serializes with a leading type byte; see totem/token.cpp.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <variant>
#include <vector>

#include "evs/config.hpp"
#include "util/seq_set.hpp"
#include "util/types.hpp"

namespace evs {

enum class MsgType : std::uint8_t {
  Regular = 1,
  Token = 2,
  Join = 3,
  FormRing = 4,
  Exchange = 5,
  RecoveryMsg = 6,
  RecoveryAck = 7,
  Beacon = 8,
  TokenHoldCancel = 9,
};

/// Valid type-byte range, derived from the enum so peek_type and the fuzz
/// round-trip test cannot drift when a message kind is added. Keep kMsgTypeMax
/// pointing at the last enumerator.
inline constexpr std::uint8_t kMsgTypeMin = static_cast<std::uint8_t>(MsgType::Regular);
inline constexpr std::uint8_t kMsgTypeMax =
    static_cast<std::uint8_t>(MsgType::TokenHoldCancel);

/// Decode-time bound on a token's retransmission-request set: total element
/// cardinality, not interval count. The ring itself caps the rtr set it
/// grows (OrderingCore::Options::max_rtr_entries, validated <= this), so any
/// CRC-valid token exceeding the bound — e.g. one interval {1..2^60} — is
/// corruption or forgery, and rejecting it at the codec boundary keeps a
/// single packet from ballooning into per-element work downstream.
inline constexpr std::uint64_t kMaxTokenRtr = 65536;

/// An application message stamped by the ordering substrate.
struct RegularMsg {
  RingId ring;          ///< ring (== regular configuration) it was sent in
  SeqNum seq{0};        ///< position in the ring's total order
  MsgId id;             ///< globally unique application identity
  Service service{Service::Agreed};
  std::vector<std::uint8_t> payload;
};

/// Type-erased shared ownership of the buffer a view's payload points into —
/// usually the ref-counted datagram the message arrived in (net::DatagramRef)
/// or the shared buffer make_view allocates for a locally-originated message.
/// Type-erasing here keeps wire/totem transport-agnostic.
using BufferRef = std::shared_ptr<const void>;

/// Non-owning variant of RegularMsg for the zero-copy hot path. The payload
/// is a borrowed span; `owner` pins the buffer it points into, so the view
/// (and any copy of it) stays valid for as long as someone holds it —
/// including across OrderingCore garbage collection, which erases its store
/// entry without touching the arena-owned bytes. Copying a view copies a
/// span and bumps a refcount; the payload bytes are never copied.
struct RegularMsgView {
  RingId ring;
  SeqNum seq{0};
  MsgId id;
  Service service{Service::Agreed};
  std::span<const std::uint8_t> payload;
  BufferRef owner;

  /// Materialize an owning copy (cold paths: recovery buffers, persistence).
  RegularMsg to_owned() const {
    return RegularMsg{ring, seq, id, service,
                      std::vector<std::uint8_t>(payload.begin(), payload.end())};
  }
};

/// Wrap an owned message as a self-owning view: the payload vector moves
/// into a shared buffer the returned view pins. One allocation, zero byte
/// copies.
RegularMsgView make_view(RegularMsg m);

/// The ordering token (Totem single-ring style).
struct TokenMsg {
  RingId ring;
  std::uint64_t rotation{0};  ///< increments every full hop; detects staleness
  SeqNum seq{0};              ///< highest sequence number assigned on this ring
  SeqNum aru{0};              ///< all-received-up-to over the whole ring
  ProcessId aru_setter{};     ///< who last lowered aru (0 value = unset)
  SeqSet rtr;                 ///< retransmission requests
  /// Flow-control count (Totem): broadcasts during the last full rotation.
  /// Each member subtracts what it added last visit and adds this visit's
  /// new + retransmitted messages; senders budget new messages against the
  /// ring-wide window minus fcc, so one congested member throttles everyone.
  std::uint32_t fcc{0};
};

/// Membership gather message.
struct JoinMsg {
  ProcessId sender;
  std::uint64_t episode{0};            ///< sender's gather episode counter
  std::vector<ProcessId> candidates;   ///< processes sender believes reachable
  std::vector<ProcessId> fail_set;     ///< processes sender has given up on
  RingSeq max_ring_seq{0};             ///< highest ring seq sender has seen
};

/// Ring formation proposal broadcast by the representative when its gather
/// view reached consensus.
struct FormRingMsg {
  ProcessId sender;
  RingId ring;                       ///< proposed new ring id
  std::vector<ProcessId> members;    ///< proposed membership, sorted
};

/// EVS recovery step 3: state exchange for the proposed ring.
struct ExchangeMsg {
  ProcessId sender;
  RingId proposed_ring;       ///< which proposal this exchange belongs to
  RingId old_ring;            ///< sender's last installed *regular* ring
  SeqSet received;            ///< old-ring sequence numbers sender holds
  SeqNum old_safe_upto{0};    ///< highest seq sender observed safe on old ring
  SeqNum delivered_upto{0};   ///< contiguous prefix sender already delivered
  SeqSet delivered_extra;     ///< non-contiguous old-ring seqs already delivered
  /// Safety-horizon GC watermark: bodies for seqs <= gc_upto were reclaimed
  /// after a fully-acknowledged rotation proved every old-ring member holds
  /// them, so the sender can vouch for (and has delivered) those seqs but
  /// cannot rebroadcast them. Always <= delivered_upto; `received` still
  /// covers [1, gc_upto] as an interval summary.
  SeqNum gc_upto{0};
  std::vector<ProcessId> obligation_set;
};

/// EVS recovery step 5: rebroadcast of an old-ring message, encapsulated.
struct RecoveryMsgMsg {
  ProcessId sender;
  RingId proposed_ring;
  RegularMsg inner;
};

/// EVS recovery step 5: ack carrying the updated received-set; `complete`
/// set once the sender holds every available old-ring message (step 5.c).
struct RecoveryAckMsg {
  ProcessId sender;
  RingId proposed_ring;
  RingId old_ring;
  SeqSet received;
  bool complete{false};
};

/// Periodic presence announcement by operational processes. A process that
/// hears a beacon for a ring other than its own knows the network has merged
/// (or that it missed a configuration change) and starts a membership gather.
struct BeaconMsg {
  ProcessId sender;
  RingId ring;
};

/// Token hold cancel (Corosync's token_hold_cancel): multicast to the whole
/// ring by a member that has something to send while the ring's
/// representative may be holding the idle ring's token (DESIGN.md "Token
/// hold"). Only the holder acts on it: it processes and forwards the held
/// token at once. The other members drop it, but its arrival has already
/// woken them for the rotation that follows. A cancel for any other ring is
/// ignored.
struct TokenHoldCancelMsg {
  ProcessId sender;
  RingId ring;
};

// --- codec -------------------------------------------------------------------

std::vector<std::uint8_t> encode_msg(const RegularMsg& m);
std::vector<std::uint8_t> encode_msg(const RegularMsgView& m);
std::vector<std::uint8_t> encode_msg(const TokenMsg& m);
std::vector<std::uint8_t> encode_msg(const JoinMsg& m);
std::vector<std::uint8_t> encode_msg(const FormRingMsg& m);
std::vector<std::uint8_t> encode_msg(const ExchangeMsg& m);
std::vector<std::uint8_t> encode_msg(const RecoveryMsgMsg& m);
std::vector<std::uint8_t> encode_msg(const RecoveryAckMsg& m);
std::vector<std::uint8_t> encode_msg(const BeaconMsg& m);
std::vector<std::uint8_t> encode_msg(const TokenHoldCancelMsg& m);

/// Type of an encoded packet, or nullopt if the buffer is empty/invalid.
std::optional<MsgType> peek_type(std::span<const std::uint8_t> buf);

/// Any protocol message, as produced by the strict decoder below.
using AnyMsg = std::variant<RegularMsg, TokenMsg, JoinMsg, FormRingMsg, ExchangeMsg,
                            RecoveryMsgMsg, RecoveryAckMsg, BeaconMsg,
                            TokenHoldCancelMsg>;

/// Strict, non-asserting decoder for untrusted bytes. Returns nullopt for
/// any buffer that is truncated, has trailing bytes, carries an unknown type
/// byte, or violates a protocol-level invariant (unsorted member lists,
/// sequence number 0, out-of-range service level, aru beyond seq, ...).
/// Never crashes and never allocates more than the buffer can justify, so it
/// is safe to call on arbitrarily corrupted input. This is the only decode
/// entry point protocol nodes use on packets from the network.
std::optional<AnyMsg> try_decode(std::span<const std::uint8_t> buf);

/// Strict, non-asserting zero-copy decode of a Regular message: same
/// validation as try_decode, but the payload borrows from `buf` and the
/// result pins `owner` (the ref-counted buffer `buf` points into). This is
/// the hot-path decode entry point; the returned view must not outlive its
/// owner's buffer, which holding the view guarantees.
std::optional<RegularMsgView> try_decode_regular_view(
    std::span<const std::uint8_t> buf, BufferRef owner);

// Decoders that assert on malformed input, for buffers we wrote ourselves
// (stable storage, tests). They apply the same strict validation as
// try_decode and abort instead of rejecting.
RegularMsg decode_regular(std::span<const std::uint8_t> buf);
TokenMsg decode_token(std::span<const std::uint8_t> buf);
JoinMsg decode_join(std::span<const std::uint8_t> buf);
FormRingMsg decode_form_ring(std::span<const std::uint8_t> buf);
ExchangeMsg decode_exchange(std::span<const std::uint8_t> buf);
RecoveryMsgMsg decode_recovery_msg(std::span<const std::uint8_t> buf);
RecoveryAckMsg decode_recovery_ack(std::span<const std::uint8_t> buf);
BeaconMsg decode_beacon(std::span<const std::uint8_t> buf);
TokenHoldCancelMsg decode_token_hold_cancel(std::span<const std::uint8_t> buf);

// --- transitional shims ------------------------------------------------------
//
// The pre-span decode API took const std::vector&. A vector lvalue binds to
// these exact-match overloads (instead of converting to span), so unmigrated
// callers keep compiling and get a deprecation warning pointing at the span
// replacement. Remove after one release.

[[deprecated("pass std::span<const std::uint8_t>")]] inline std::optional<MsgType>
peek_type(const std::vector<std::uint8_t>& buf) {
  return peek_type(std::span<const std::uint8_t>(buf));
}
[[deprecated("pass std::span<const std::uint8_t>")]] inline RegularMsg
decode_regular(const std::vector<std::uint8_t>& buf) {
  return decode_regular(std::span<const std::uint8_t>(buf));
}
[[deprecated("pass std::span<const std::uint8_t>")]] inline TokenMsg
decode_token(const std::vector<std::uint8_t>& buf) {
  return decode_token(std::span<const std::uint8_t>(buf));
}
[[deprecated("pass std::span<const std::uint8_t>")]] inline JoinMsg
decode_join(const std::vector<std::uint8_t>& buf) {
  return decode_join(std::span<const std::uint8_t>(buf));
}
[[deprecated("pass std::span<const std::uint8_t>")]] inline FormRingMsg
decode_form_ring(const std::vector<std::uint8_t>& buf) {
  return decode_form_ring(std::span<const std::uint8_t>(buf));
}
[[deprecated("pass std::span<const std::uint8_t>")]] inline ExchangeMsg
decode_exchange(const std::vector<std::uint8_t>& buf) {
  return decode_exchange(std::span<const std::uint8_t>(buf));
}
[[deprecated("pass std::span<const std::uint8_t>")]] inline RecoveryMsgMsg
decode_recovery_msg(const std::vector<std::uint8_t>& buf) {
  return decode_recovery_msg(std::span<const std::uint8_t>(buf));
}
[[deprecated("pass std::span<const std::uint8_t>")]] inline RecoveryAckMsg
decode_recovery_ack(const std::vector<std::uint8_t>& buf) {
  return decode_recovery_ack(std::span<const std::uint8_t>(buf));
}
[[deprecated("pass std::span<const std::uint8_t>")]] inline BeaconMsg
decode_beacon(const std::vector<std::uint8_t>& buf) {
  return decode_beacon(std::span<const std::uint8_t>(buf));
}

}  // namespace evs
