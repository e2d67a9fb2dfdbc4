#include "wire/codec.hpp"

#include <gtest/gtest.h>

#include <span>

#include "evs/config.hpp"
#include "totem/messages.hpp"

namespace evs {
namespace {

TEST(CodecTest, ScalarsRoundTrip) {
  wire::Writer w;
  w.u8(0xAB);
  w.u16(0x1234);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  w.boolean(true);
  w.boolean(false);
  auto buf = w.take();
  wire::Reader r(buf);
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
  EXPECT_TRUE(r.done());
}

TEST(CodecTest, LittleEndianLayout) {
  wire::Writer w;
  w.u32(0x01020304);
  auto buf = w.take();
  ASSERT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf[0], 0x04);
  EXPECT_EQ(buf[3], 0x01);
}

TEST(CodecTest, StringsAndBytes) {
  wire::Writer w;
  w.str("hello");
  w.str("");
  std::vector<std::uint8_t> blob{1, 2, 3};
  w.bytes(blob);
  auto buf = w.take();
  wire::Reader r(buf);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.bytes(), blob);
  EXPECT_TRUE(r.done());
}

TEST(CodecTest, SeqSetRoundTrip) {
  SeqSet s;
  s.insert_range(1, 100);
  s.insert(200);
  s.insert_range(300, 301);
  wire::Writer w;
  w.seq_set(s);
  auto buf = w.take();
  wire::Reader r(buf);
  EXPECT_EQ(r.seq_set(), s);
  EXPECT_TRUE(r.done());
}

TEST(CodecTest, EmptySeqSetRoundTrip) {
  wire::Writer w;
  w.seq_set(SeqSet{});
  auto buf = w.take();
  wire::Reader r(buf);
  EXPECT_TRUE(r.seq_set().empty());
}

TEST(CodecTest, VectorsRoundTrip) {
  wire::Writer w;
  w.pid_vec({ProcessId{3}, ProcessId{1}, ProcessId{7}});
  w.seq_vec({10, 20, 30});
  auto buf = w.take();
  wire::Reader r(buf);
  EXPECT_EQ(r.pid_vec(), (std::vector<ProcessId>{ProcessId{3}, ProcessId{1}, ProcessId{7}}));
  EXPECT_EQ(r.seq_vec(), (std::vector<SeqNum>{10, 20, 30}));
}

TEST(CodecTest, TruncatedBufferSetsNotOk) {
  wire::Writer w;
  w.u64(12345);
  auto buf = w.take();
  buf.resize(3);
  wire::Reader r(buf);
  (void)r.u64();
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.done());
}

TEST(CodecTest, CorruptSeqSetRejected) {
  wire::Writer w;
  w.u32(2);
  w.u64(5);
  w.u64(3);  // hi < lo: invalid interval
  w.u64(10);
  w.u64(11);
  auto buf = w.take();
  wire::Reader r(buf);
  (void)r.seq_set();
  EXPECT_FALSE(r.ok());
}

TEST(CodecTest, ConfigIdRoundTrip) {
  ConfigId c = ConfigId::trans(RingId{5, ProcessId{2}}, RingId{9, ProcessId{1}});
  wire::Writer w;
  encode(w, c);
  auto buf = w.take();
  wire::Reader r(buf);
  EXPECT_EQ(decode_config_id(r), c);
}

TEST(CodecTest, RegularMsgRoundTrip) {
  RegularMsg m;
  m.ring = RingId{7, ProcessId{3}};
  m.seq = 42;
  m.id = MsgId{ProcessId{3}, 99};
  m.service = Service::Safe;
  m.payload = {9, 8, 7};
  auto buf = encode_msg(m);
  EXPECT_EQ(peek_type(std::span(buf)), MsgType::Regular);
  RegularMsg d = decode_regular(std::span(buf));
  EXPECT_EQ(d.ring, m.ring);
  EXPECT_EQ(d.seq, m.seq);
  EXPECT_EQ(d.id, m.id);
  EXPECT_EQ(d.service, m.service);
  EXPECT_EQ(d.payload, m.payload);
}

TEST(CodecTest, TokenRoundTrip) {
  TokenMsg t;
  t.ring = RingId{3, ProcessId{1}};
  t.rotation = 17;
  t.seq = 1000;
  t.aru = 990;
  t.aru_setter = ProcessId{4};
  t.rtr.insert_range(991, 995);
  auto buf = encode_msg(t);
  EXPECT_EQ(peek_type(std::span(buf)), MsgType::Token);
  TokenMsg d = decode_token(std::span(buf));
  EXPECT_EQ(d.ring, t.ring);
  EXPECT_EQ(d.rotation, t.rotation);
  EXPECT_EQ(d.seq, t.seq);
  EXPECT_EQ(d.aru, t.aru);
  EXPECT_EQ(d.aru_setter, t.aru_setter);
  EXPECT_EQ(d.rtr, t.rtr);
}

TEST(CodecTest, JoinRoundTrip) {
  JoinMsg j;
  j.sender = ProcessId{5};
  j.episode = 3;
  j.candidates = {ProcessId{1}, ProcessId{5}};
  j.fail_set = {ProcessId{9}};
  j.max_ring_seq = 77;
  auto buf = encode_msg(j);
  JoinMsg d = decode_join(std::span(buf));
  EXPECT_EQ(d.sender, j.sender);
  EXPECT_EQ(d.episode, j.episode);
  EXPECT_EQ(d.candidates, j.candidates);
  EXPECT_EQ(d.fail_set, j.fail_set);
  EXPECT_EQ(d.max_ring_seq, j.max_ring_seq);
}

TEST(CodecTest, ExchangeRoundTrip) {
  ExchangeMsg e;
  e.sender = ProcessId{2};
  e.proposed_ring = RingId{10, ProcessId{1}};
  e.old_ring = RingId{6, ProcessId{2}};
  e.received.insert_range(1, 50);
  e.old_safe_upto = 44;
  e.delivered_upto = 40;
  e.delivered_extra.insert(48);
  e.obligation_set = {ProcessId{2}, ProcessId{3}};
  auto buf = encode_msg(e);
  ExchangeMsg d = decode_exchange(std::span(buf));
  EXPECT_EQ(d.sender, e.sender);
  EXPECT_EQ(d.proposed_ring, e.proposed_ring);
  EXPECT_EQ(d.old_ring, e.old_ring);
  EXPECT_EQ(d.received, e.received);
  EXPECT_EQ(d.old_safe_upto, e.old_safe_upto);
  EXPECT_EQ(d.delivered_upto, e.delivered_upto);
  EXPECT_EQ(d.delivered_extra, e.delivered_extra);
  EXPECT_EQ(d.obligation_set, e.obligation_set);
}

TEST(CodecTest, RecoveryMsgRoundTrip) {
  RecoveryMsgMsg rm;
  rm.sender = ProcessId{1};
  rm.proposed_ring = RingId{4, ProcessId{1}};
  rm.inner.ring = RingId{2, ProcessId{1}};
  rm.inner.seq = 5;
  rm.inner.id = MsgId{ProcessId{2}, 11};
  rm.inner.service = Service::Agreed;
  rm.inner.payload = {1};
  auto buf = encode_msg(rm);
  RecoveryMsgMsg d = decode_recovery_msg(std::span(buf));
  EXPECT_EQ(d.sender, rm.sender);
  EXPECT_EQ(d.proposed_ring, rm.proposed_ring);
  EXPECT_EQ(d.inner.seq, rm.inner.seq);
  EXPECT_EQ(d.inner.id, rm.inner.id);
}

TEST(CodecTest, RecoveryAckAndBeaconAndFormRing) {
  RecoveryAckMsg a;
  a.sender = ProcessId{3};
  a.proposed_ring = RingId{8, ProcessId{1}};
  a.old_ring = RingId{5, ProcessId{3}};
  a.received.insert(1);
  a.complete = true;
  auto abuf = encode_msg(a);
  auto da = decode_recovery_ack(std::span(abuf));
  EXPECT_EQ(da.sender, a.sender);
  EXPECT_TRUE(da.complete);
  EXPECT_EQ(da.received, a.received);

  BeaconMsg b{ProcessId{4}, RingId{12, ProcessId{4}}};
  auto bbuf = encode_msg(b);
  auto db = decode_beacon(std::span(bbuf));
  EXPECT_EQ(db.sender, b.sender);
  EXPECT_EQ(db.ring, b.ring);

  TokenHoldCancelMsg c{ProcessId{3}, RingId{12, ProcessId{1}}};
  auto cbuf = encode_msg(c);
  auto dc = decode_token_hold_cancel(std::span(cbuf));
  EXPECT_EQ(dc.sender, c.sender);
  EXPECT_EQ(dc.ring, c.ring);

  FormRingMsg f{ProcessId{1}, RingId{20, ProcessId{1}}, {ProcessId{1}, ProcessId{2}}};
  auto fbuf = encode_msg(f);
  auto df = decode_form_ring(std::span(fbuf));
  EXPECT_EQ(df.ring, f.ring);
  EXPECT_EQ(df.members, f.members);
}

TEST(CodecTest, PeekTypeOnGarbage) {
  const std::vector<std::uint8_t> empty, zero{0}, unknown{99};
  EXPECT_EQ(peek_type(std::span(empty)), std::nullopt);
  EXPECT_EQ(peek_type(std::span(zero)), std::nullopt);
  EXPECT_EQ(peek_type(std::span(unknown)), std::nullopt);
}

}  // namespace
}  // namespace evs
