// Codec implementations for all protocol wire messages.
//
// Decoding is written defensively: the network may hand us corrupted bytes
// (the fault-injection engine flips bytes deliberately; see src/sim/faults),
// and while the CRC frame layer catches essentially all of it, the message
// codec itself must also never crash, never over-allocate and never accept a
// structurally invalid message. Every field that downstream code treats as
// an invariant (sorted member lists, nonzero sequence numbers, enum ranges,
// aru <= seq) is checked here, once, at the boundary.
#include "totem/messages.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "wire/codec.hpp"

namespace evs {
namespace {

bool sorted_strict(const std::vector<ProcessId>& v) {
  return std::adjacent_find(v.begin(), v.end(),
                            [](ProcessId a, ProcessId b) { return !(a < b); }) ==
         v.end();
}

void encode_inner(wire::Writer& w, const RegularMsg& m) {
  encode(w, m.ring);
  w.u64(m.seq);
  encode(w, m.id);
  w.u8(static_cast<std::uint8_t>(m.service));
  w.bytes(m.payload);
}

void encode_inner(wire::Writer& w, const RegularMsgView& m) {
  encode(w, m.ring);
  w.u64(m.seq);
  encode(w, m.id);
  w.u8(static_cast<std::uint8_t>(m.service));
  w.bytes(m.payload);
}

std::optional<RegularMsg> read_regular(wire::Reader& r) {
  RegularMsg m;
  m.ring = decode_ring_id(r);
  m.seq = r.u64();
  m.id = decode_msg_id(r);
  const std::uint8_t service = r.u8();
  m.payload = r.bytes();
  if (!r.ok()) return std::nullopt;
  if (!m.ring.valid() || m.seq < 1 || !m.id.valid()) return std::nullopt;
  if (service > static_cast<std::uint8_t>(Service::Safe)) return std::nullopt;
  m.service = static_cast<Service>(service);
  return m;
}

/// Zero-copy twin of read_regular: identical field order and validation, but
/// the payload is a view into the Reader's buffer (the caller attaches the
/// owner). Kept adjacent so the two cannot drift.
std::optional<RegularMsgView> read_regular_view(wire::Reader& r) {
  RegularMsgView m;
  m.ring = decode_ring_id(r);
  m.seq = r.u64();
  m.id = decode_msg_id(r);
  const std::uint8_t service = r.u8();
  m.payload = r.bytes_view();
  if (!r.ok()) return std::nullopt;
  if (!m.ring.valid() || m.seq < 1 || !m.id.valid()) return std::nullopt;
  if (service > static_cast<std::uint8_t>(Service::Safe)) return std::nullopt;
  m.service = static_cast<Service>(service);
  return m;
}

std::optional<TokenMsg> read_token(wire::Reader& r) {
  TokenMsg m;
  m.ring = decode_ring_id(r);
  m.rotation = r.u64();
  m.seq = r.u64();
  m.aru = r.u64();
  m.aru_setter = r.pid();
  m.rtr = r.seq_set();
  m.fcc = r.u32();
  if (!r.ok()) return std::nullopt;
  if (!m.ring.valid() || m.rotation < 1) return std::nullopt;
  // The all-received horizon and every retransmission request refer to
  // sequence numbers that have been assigned, i.e. are bounded by seq.
  if (m.aru > m.seq || m.rtr.max() > m.seq) return std::nullopt;
  // rtr.max() <= seq bounds each request but not how many a forged token can
  // carry: one interval {1..seq} is CRC-valid yet encodes seq elements. Cap
  // total cardinality so a single packet cannot buy unbounded downstream work.
  if (m.rtr.size() > kMaxTokenRtr) return std::nullopt;
  return m;
}

std::optional<JoinMsg> read_join(wire::Reader& r) {
  JoinMsg m;
  m.sender = r.pid();
  m.episode = r.u64();
  m.candidates = r.pid_vec();
  m.fail_set = r.pid_vec();
  m.max_ring_seq = r.u64();
  if (!r.ok()) return std::nullopt;
  if (m.sender == ProcessId{}) return std::nullopt;
  if (!sorted_strict(m.candidates) || !sorted_strict(m.fail_set)) return std::nullopt;
  // Joins propagate the max ring seq transitively (peers adopt max-seen + 1),
  // so an implausible value from one corrupted node would poison the whole
  // system's counter forever. Reject it at the boundary instead.
  if (m.max_ring_seq > kMaxRingSeq) return std::nullopt;
  return m;
}

std::optional<FormRingMsg> read_form_ring(wire::Reader& r) {
  FormRingMsg m;
  m.sender = r.pid();
  m.ring = decode_ring_id(r);
  m.members = r.pid_vec();
  if (!r.ok()) return std::nullopt;
  if (m.sender == ProcessId{} || !m.ring.valid()) return std::nullopt;
  if (m.members.empty() || !sorted_strict(m.members)) return std::nullopt;
  return m;
}

std::optional<ExchangeMsg> read_exchange(wire::Reader& r) {
  ExchangeMsg m;
  m.sender = r.pid();
  m.proposed_ring = decode_ring_id(r);
  m.old_ring = decode_ring_id(r);
  m.received = r.seq_set();
  m.old_safe_upto = r.u64();
  m.delivered_upto = r.u64();
  m.delivered_extra = r.seq_set();
  m.gc_upto = r.u64();
  m.obligation_set = r.pid_vec();
  if (!r.ok()) return std::nullopt;
  if (m.sender == ProcessId{} || !m.proposed_ring.valid()) return std::nullopt;
  if (!sorted_strict(m.obligation_set)) return std::nullopt;
  // A process with no prior ring has no backlog to report.
  if (!m.old_ring.valid() && !m.received.empty()) return std::nullopt;
  // The GC watermark only ever trails delivery, and a GC'd prefix must still
  // be accounted for in the received summary (recovery counts on both).
  if (m.gc_upto > m.delivered_upto) return std::nullopt;
  if (m.gc_upto > 0 && m.received.contiguous_from(0) < m.gc_upto) return std::nullopt;
  if (!m.old_ring.valid() && m.gc_upto != 0) return std::nullopt;
  return m;
}

std::optional<RecoveryMsgMsg> read_recovery_msg(wire::Reader& r) {
  RecoveryMsgMsg m;
  m.sender = r.pid();
  m.proposed_ring = decode_ring_id(r);
  auto inner = read_regular(r);
  if (!r.ok() || !inner.has_value()) return std::nullopt;
  if (m.sender == ProcessId{} || !m.proposed_ring.valid()) return std::nullopt;
  m.inner = std::move(*inner);
  return m;
}

std::optional<RecoveryAckMsg> read_recovery_ack(wire::Reader& r) {
  RecoveryAckMsg m;
  m.sender = r.pid();
  m.proposed_ring = decode_ring_id(r);
  m.old_ring = decode_ring_id(r);
  m.received = r.seq_set();
  const std::uint8_t complete = r.u8();
  if (!r.ok()) return std::nullopt;
  if (m.sender == ProcessId{} || !m.proposed_ring.valid()) return std::nullopt;
  if (complete > 1) return std::nullopt;
  m.complete = complete != 0;
  return m;
}

/// BeaconMsg and TokenHoldCancelMsg share one layout: a sender and a ring.
template <typename T>
std::optional<T> read_sender_ring(wire::Reader& r) {
  T m;
  m.sender = r.pid();
  m.ring = decode_ring_id(r);
  if (!r.ok()) return std::nullopt;
  if (m.sender == ProcessId{} || !m.ring.valid()) return std::nullopt;
  return m;
}

template <typename T>
std::vector<std::uint8_t> encode_sender_ring(MsgType type, const T& m) {
  wire::Writer w;
  w.u8(static_cast<std::uint8_t>(type));
  w.pid(m.sender);
  encode(w, m.ring);
  return w.take();
}

/// Strict decode of one message of the `expected` kind, validating the type
/// byte, every field and the absence of trailing bytes.
template <typename T>
std::optional<T> strict_decode(std::span<const std::uint8_t> buf, MsgType expected,
                               std::optional<T> (*read)(wire::Reader&)) {
  wire::Reader r(buf);
  if (static_cast<MsgType>(r.u8()) != expected || !r.ok()) return std::nullopt;
  std::optional<T> m = read(r);
  if (!m.has_value() || !r.done()) return std::nullopt;
  return m;
}

template <typename T>
T checked_decode(std::span<const std::uint8_t> buf, MsgType expected,
                 std::optional<T> (*read)(wire::Reader&)) {
  std::optional<T> m = strict_decode<T>(buf, expected, read);
  EVS_ASSERT_MSG(m.has_value(), "malformed packet");
  return std::move(*m);
}

}  // namespace

std::optional<MsgType> peek_type(std::span<const std::uint8_t> buf) {
  if (buf.empty()) return std::nullopt;
  if (buf[0] < kMsgTypeMin || buf[0] > kMsgTypeMax) return std::nullopt;
  return static_cast<MsgType>(buf[0]);
}

std::optional<AnyMsg> try_decode(std::span<const std::uint8_t> buf) {
  if (buf.empty()) return std::nullopt;
  const auto wrap = [](auto&& m) -> std::optional<AnyMsg> {
    if (!m.has_value()) return std::nullopt;
    return AnyMsg{std::move(*m)};
  };
  switch (static_cast<MsgType>(buf[0])) {
    case MsgType::Regular: return wrap(strict_decode(buf, MsgType::Regular, read_regular));
    case MsgType::Token: return wrap(strict_decode(buf, MsgType::Token, read_token));
    case MsgType::Join: return wrap(strict_decode(buf, MsgType::Join, read_join));
    case MsgType::FormRing:
      return wrap(strict_decode(buf, MsgType::FormRing, read_form_ring));
    case MsgType::Exchange:
      return wrap(strict_decode(buf, MsgType::Exchange, read_exchange));
    case MsgType::RecoveryMsg:
      return wrap(strict_decode(buf, MsgType::RecoveryMsg, read_recovery_msg));
    case MsgType::RecoveryAck:
      return wrap(strict_decode(buf, MsgType::RecoveryAck, read_recovery_ack));
    case MsgType::Beacon:
      return wrap(strict_decode(buf, MsgType::Beacon, read_sender_ring<BeaconMsg>));
    case MsgType::TokenHoldCancel:
      return wrap(strict_decode(buf, MsgType::TokenHoldCancel,
                                read_sender_ring<TokenHoldCancelMsg>));
  }
  return std::nullopt;
}

std::vector<std::uint8_t> encode_msg(const RegularMsg& m) {
  wire::Writer w;
  w.u8(static_cast<std::uint8_t>(MsgType::Regular));
  encode_inner(w, m);
  return w.take();
}

RegularMsg decode_regular(std::span<const std::uint8_t> buf) {
  return checked_decode(buf, MsgType::Regular, read_regular);
}

std::vector<std::uint8_t> encode_msg(const RegularMsgView& m) {
  wire::Writer w;
  w.u8(static_cast<std::uint8_t>(MsgType::Regular));
  encode_inner(w, m);
  return w.take();
}

std::optional<RegularMsgView> try_decode_regular_view(
    std::span<const std::uint8_t> buf, BufferRef owner) {
  std::optional<RegularMsgView> m =
      strict_decode<RegularMsgView>(buf, MsgType::Regular, read_regular_view);
  if (m.has_value()) m->owner = std::move(owner);
  return m;
}

RegularMsgView make_view(RegularMsg m) {
  auto buf = std::make_shared<std::vector<std::uint8_t>>(std::move(m.payload));
  RegularMsgView v;
  v.ring = m.ring;
  v.seq = m.seq;
  v.id = m.id;
  v.service = m.service;
  v.payload = std::span<const std::uint8_t>(*buf);
  v.owner = std::move(buf);
  return v;
}

std::vector<std::uint8_t> encode_msg(const TokenMsg& m) {
  wire::Writer w;
  w.u8(static_cast<std::uint8_t>(MsgType::Token));
  encode(w, m.ring);
  w.u64(m.rotation);
  w.u64(m.seq);
  w.u64(m.aru);
  w.pid(m.aru_setter);
  w.seq_set(m.rtr);
  w.u32(m.fcc);
  return w.take();
}

TokenMsg decode_token(std::span<const std::uint8_t> buf) {
  return checked_decode(buf, MsgType::Token, read_token);
}

std::vector<std::uint8_t> encode_msg(const JoinMsg& m) {
  wire::Writer w;
  w.u8(static_cast<std::uint8_t>(MsgType::Join));
  w.pid(m.sender);
  w.u64(m.episode);
  w.pid_vec(m.candidates);
  w.pid_vec(m.fail_set);
  w.u64(m.max_ring_seq);
  return w.take();
}

JoinMsg decode_join(std::span<const std::uint8_t> buf) {
  return checked_decode(buf, MsgType::Join, read_join);
}

std::vector<std::uint8_t> encode_msg(const FormRingMsg& m) {
  wire::Writer w;
  w.u8(static_cast<std::uint8_t>(MsgType::FormRing));
  w.pid(m.sender);
  encode(w, m.ring);
  w.pid_vec(m.members);
  return w.take();
}

FormRingMsg decode_form_ring(std::span<const std::uint8_t> buf) {
  return checked_decode(buf, MsgType::FormRing, read_form_ring);
}

std::vector<std::uint8_t> encode_msg(const ExchangeMsg& m) {
  wire::Writer w;
  w.u8(static_cast<std::uint8_t>(MsgType::Exchange));
  w.pid(m.sender);
  encode(w, m.proposed_ring);
  encode(w, m.old_ring);
  w.seq_set(m.received);
  w.u64(m.old_safe_upto);
  w.u64(m.delivered_upto);
  w.seq_set(m.delivered_extra);
  w.u64(m.gc_upto);
  w.pid_vec(m.obligation_set);
  return w.take();
}

ExchangeMsg decode_exchange(std::span<const std::uint8_t> buf) {
  return checked_decode(buf, MsgType::Exchange, read_exchange);
}

std::vector<std::uint8_t> encode_msg(const RecoveryMsgMsg& m) {
  wire::Writer w;
  w.u8(static_cast<std::uint8_t>(MsgType::RecoveryMsg));
  w.pid(m.sender);
  encode(w, m.proposed_ring);
  encode_inner(w, m.inner);
  return w.take();
}

RecoveryMsgMsg decode_recovery_msg(std::span<const std::uint8_t> buf) {
  return checked_decode(buf, MsgType::RecoveryMsg, read_recovery_msg);
}

std::vector<std::uint8_t> encode_msg(const RecoveryAckMsg& m) {
  wire::Writer w;
  w.u8(static_cast<std::uint8_t>(MsgType::RecoveryAck));
  w.pid(m.sender);
  encode(w, m.proposed_ring);
  encode(w, m.old_ring);
  w.seq_set(m.received);
  w.boolean(m.complete);
  return w.take();
}

RecoveryAckMsg decode_recovery_ack(std::span<const std::uint8_t> buf) {
  return checked_decode(buf, MsgType::RecoveryAck, read_recovery_ack);
}

std::vector<std::uint8_t> encode_msg(const BeaconMsg& m) {
  return encode_sender_ring(MsgType::Beacon, m);
}

BeaconMsg decode_beacon(std::span<const std::uint8_t> buf) {
  return checked_decode(buf, MsgType::Beacon, read_sender_ring<BeaconMsg>);
}

std::vector<std::uint8_t> encode_msg(const TokenHoldCancelMsg& m) {
  return encode_sender_ring(MsgType::TokenHoldCancel, m);
}

TokenHoldCancelMsg decode_token_hold_cancel(std::span<const std::uint8_t> buf) {
  return checked_decode(buf, MsgType::TokenHoldCancel,
                        read_sender_ring<TokenHoldCancelMsg>);
}

}  // namespace evs
