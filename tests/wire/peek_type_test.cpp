// peek_type and the strict decoder across the full message surface: every
// MsgType must survive encode_msg -> peek_type -> try_decode with the peeked
// type agreeing with the decoded alternative, the type-byte range must be
// exactly [kMsgTypeMin, kMsgTypeMax], and the decode-time resource bounds
// (token rtr cardinality, exchange GC watermark consistency) must hold.
#include <gtest/gtest.h>

#include <span>
#include <variant>

#include "totem/messages.hpp"

namespace evs {
namespace {

RegularMsg sample_regular() {
  RegularMsg m;
  m.ring = RingId{7, ProcessId{3}};
  m.seq = 42;
  m.id = MsgId{ProcessId{3}, 99};
  m.service = Service::Safe;
  m.payload = {9, 8, 7};
  return m;
}

TokenMsg sample_token() {
  TokenMsg t;
  t.ring = RingId{3, ProcessId{1}};
  t.rotation = 17;
  t.seq = 1000;
  t.aru = 990;
  t.aru_setter = ProcessId{4};
  t.rtr.insert_range(991, 995);
  t.fcc = 12;
  return t;
}

ExchangeMsg sample_exchange() {
  ExchangeMsg e;
  e.sender = ProcessId{2};
  e.proposed_ring = RingId{10, ProcessId{1}};
  e.old_ring = RingId{6, ProcessId{2}};
  e.received.insert_range(1, 50);
  e.old_safe_upto = 44;
  e.delivered_upto = 40;
  e.delivered_extra.insert(48);
  e.gc_upto = 30;
  e.obligation_set = {ProcessId{2}, ProcessId{3}};
  return e;
}

// Every message kind, paired with the variant alternative try_decode must
// produce for it. A MsgType added without extending this list fails the
// exhaustiveness check below.
template <typename T>
void expect_round_trip(const T& msg, MsgType want) {
  const auto buf = encode_msg(msg);
  const auto peeked = peek_type(std::span(buf));
  ASSERT_TRUE(peeked.has_value());
  EXPECT_EQ(*peeked, want);
  const auto decoded = try_decode(buf);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(std::holds_alternative<T>(*decoded));
}

TEST(PeekTypeTest, EveryMsgTypeRoundTrips) {
  expect_round_trip(sample_regular(), MsgType::Regular);
  expect_round_trip(sample_token(), MsgType::Token);

  JoinMsg j;
  j.sender = ProcessId{5};
  j.episode = 3;
  j.candidates = {ProcessId{1}, ProcessId{5}};
  j.fail_set = {ProcessId{9}};
  j.max_ring_seq = 77;
  expect_round_trip(j, MsgType::Join);

  FormRingMsg f{ProcessId{1}, RingId{20, ProcessId{1}},
                {ProcessId{1}, ProcessId{2}}};
  expect_round_trip(f, MsgType::FormRing);

  expect_round_trip(sample_exchange(), MsgType::Exchange);

  RecoveryMsgMsg rm;
  rm.sender = ProcessId{1};
  rm.proposed_ring = RingId{4, ProcessId{1}};
  rm.inner = sample_regular();
  expect_round_trip(rm, MsgType::RecoveryMsg);

  RecoveryAckMsg a;
  a.sender = ProcessId{3};
  a.proposed_ring = RingId{8, ProcessId{1}};
  a.old_ring = RingId{5, ProcessId{3}};
  a.received.insert(1);
  a.complete = true;
  expect_round_trip(a, MsgType::RecoveryAck);

  expect_round_trip(BeaconMsg{ProcessId{4}, RingId{12, ProcessId{4}}},
                    MsgType::Beacon);
  expect_round_trip(TokenHoldCancelMsg{ProcessId{3}, RingId{12, ProcessId{1}}},
                    MsgType::TokenHoldCancel);

  // Exhaustiveness: the nine cases above are the whole enum. If a tenth
  // kind is added, kMsgTypeMax moves and this count fails loudly.
  EXPECT_EQ(kMsgTypeMax - kMsgTypeMin + 1, 9);
}

TEST(PeekTypeTest, TypeByteRangeIsDerivedFromEnum) {
  // Inside the valid range peek succeeds on a minimal buffer; one past
  // either end is rejected without touching the rest of the bytes.
  const std::vector<std::uint8_t> lo{kMsgTypeMin}, hi{kMsgTypeMax},
      below{static_cast<std::uint8_t>(kMsgTypeMin - 1)},
      above{static_cast<std::uint8_t>(kMsgTypeMax + 1)}, junk{0xFF};
  EXPECT_EQ(peek_type(std::span(lo)), MsgType::Regular);
  EXPECT_EQ(peek_type(std::span(hi)), MsgType::TokenHoldCancel);
  EXPECT_EQ(peek_type(std::span(below)), std::nullopt);
  EXPECT_EQ(peek_type(std::span(above)), std::nullopt);
  EXPECT_EQ(peek_type(std::span(junk)), std::nullopt);
}

TEST(PeekTypeTest, NewTokenAndExchangeFieldsRoundTrip) {
  const TokenMsg t = sample_token();
  const auto tbuf = encode_msg(t);
  const TokenMsg dt = decode_token(std::span(tbuf));
  EXPECT_EQ(dt.fcc, t.fcc);

  const ExchangeMsg e = sample_exchange();
  const auto ebuf = encode_msg(e);
  const ExchangeMsg de = decode_exchange(std::span(ebuf));
  EXPECT_EQ(de.gc_upto, e.gc_upto);
}

TEST(PeekTypeTest, TokenRtrCardinalityBoundedAtDecode) {
  TokenMsg t = sample_token();
  t.seq = kMaxTokenRtr * 2;  // requests must stay <= seq; give them room
  t.rtr = SeqSet();
  t.rtr.insert_range(1, kMaxTokenRtr);  // exactly at the cap: fine
  EXPECT_TRUE(try_decode(encode_msg(t)).has_value());

  t.rtr.insert(kMaxTokenRtr + 2);  // one element over: rejected
  EXPECT_FALSE(try_decode(encode_msg(t)).has_value());

  // The classic OOM shape — one interval spanning nearly the whole u64
  // space — must be rejected outright, not materialized.
  t.seq = UINT64_MAX;
  t.rtr = SeqSet();
  t.rtr.insert_range(1, UINT64_MAX - 1);
  EXPECT_FALSE(try_decode(encode_msg(t)).has_value());
}

TEST(PeekTypeTest, ExchangeGcWatermarkValidatedAtDecode) {
  // gc_upto beyond delivered_upto: GC never outruns delivery.
  ExchangeMsg e = sample_exchange();
  e.gc_upto = e.delivered_upto + 1;
  EXPECT_FALSE(try_decode(encode_msg(e)).has_value());

  // received must still summarize the reclaimed prefix [1, gc_upto].
  e = sample_exchange();
  e.received = SeqSet();
  e.received.insert_range(5, 50);
  EXPECT_FALSE(try_decode(encode_msg(e)).has_value());

  // A process with no prior ring has nothing to have collected.
  e = sample_exchange();
  e.old_ring = RingId{};
  e.received = SeqSet();
  e.delivered_upto = 0;
  e.delivered_extra = SeqSet();
  e.old_safe_upto = 0;
  e.gc_upto = 1;
  EXPECT_FALSE(try_decode(encode_msg(e)).has_value());
}

}  // namespace
}  // namespace evs
