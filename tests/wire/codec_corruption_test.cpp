// Adversarial codec fuzzing: corrupted, truncated or extended frames must
// never crash, never over-allocate and never be silently mis-decoded.
//
// Defense is layered. The CRC-32 frame (wire::seal_frame/open_frame)
// detects every burst error of <= 32 bits — in particular every single-byte
// flip — so a flipped frame is rejected before the message codec ever runs.
// Behind it, try_decode validates structure and protocol invariants, so
// even a forged frame with a correct CRC cannot produce a message that
// violates downstream assumptions (unsorted member lists, aru > seq, ...).
#include <gtest/gtest.h>

#include <vector>

#include "totem/messages.hpp"
#include "util/rng.hpp"
#include "wire/codec.hpp"

namespace evs {
namespace {

std::vector<std::vector<std::uint8_t>> sample_bodies() {
  std::vector<std::vector<std::uint8_t>> bodies;

  RegularMsg reg;
  reg.ring = RingId{7, ProcessId{3}};
  reg.seq = 42;
  reg.id = MsgId{ProcessId{3}, 99};
  reg.service = Service::Safe;
  reg.payload = {9, 8, 7, 6, 5};
  bodies.push_back(encode_msg(reg));

  TokenMsg token;
  token.ring = RingId{3, ProcessId{1}};
  token.rotation = 17;
  token.seq = 1000;
  token.aru = 990;
  token.aru_setter = ProcessId{4};
  token.rtr.insert_range(991, 995);
  bodies.push_back(encode_msg(token));

  JoinMsg join;
  join.sender = ProcessId{5};
  join.episode = 3;
  join.candidates = {ProcessId{1}, ProcessId{5}};
  join.fail_set = {ProcessId{9}};
  join.max_ring_seq = 77;
  bodies.push_back(encode_msg(join));

  bodies.push_back(encode_msg(
      FormRingMsg{ProcessId{1}, RingId{20, ProcessId{1}}, {ProcessId{1}, ProcessId{2}}}));

  ExchangeMsg ex;
  ex.sender = ProcessId{2};
  ex.proposed_ring = RingId{10, ProcessId{1}};
  ex.old_ring = RingId{6, ProcessId{2}};
  ex.received.insert_range(1, 50);
  ex.old_safe_upto = 44;
  ex.delivered_upto = 40;
  ex.delivered_extra.insert(48);
  ex.obligation_set = {ProcessId{2}, ProcessId{3}};
  bodies.push_back(encode_msg(ex));

  RecoveryMsgMsg rm;
  rm.sender = ProcessId{1};
  rm.proposed_ring = RingId{4, ProcessId{1}};
  rm.inner = reg;
  rm.inner.ring = RingId{2, ProcessId{1}};
  bodies.push_back(encode_msg(rm));

  RecoveryAckMsg ack;
  ack.sender = ProcessId{3};
  ack.proposed_ring = RingId{8, ProcessId{1}};
  ack.old_ring = RingId{5, ProcessId{3}};
  ack.received.insert(1);
  ack.complete = true;
  bodies.push_back(encode_msg(ack));

  bodies.push_back(encode_msg(BeaconMsg{ProcessId{4}, RingId{12, ProcessId{4}}}));
  bodies.push_back(
      encode_msg(TokenHoldCancelMsg{ProcessId{3}, RingId{12, ProcessId{1}}}));

  return bodies;
}

TEST(CodecCorruptionTest, SealOpenRoundTripsEveryMessageKind) {
  for (const auto& body : sample_bodies()) {
    const auto frame = wire::seal_frame(body).value();
    const auto opened = wire::open_frame(frame);
    ASSERT_TRUE(opened.ok());
    EXPECT_EQ(std::vector<std::uint8_t>(opened->begin(), opened->end()), body);
    EXPECT_TRUE(try_decode(*opened).has_value());
  }
}

TEST(CodecCorruptionTest, EverySingleByteFlipIsRejected) {
  for (const auto& body : sample_bodies()) {
    const auto frame = wire::seal_frame(body).value();
    for (std::size_t pos = 0; pos < frame.size(); ++pos) {
      for (std::uint8_t mask : {std::uint8_t{0xFF}, std::uint8_t{0x01}}) {
        auto corrupted = frame;
        corrupted[pos] ^= mask;
        EXPECT_FALSE(wire::open_frame(corrupted).ok())
            << "flip at offset " << pos << " mask " << int(mask) << " accepted";
      }
    }
  }
}

TEST(CodecCorruptionTest, EveryTruncationAndExtensionIsRejected) {
  for (const auto& body : sample_bodies()) {
    const auto frame = wire::seal_frame(body).value();
    for (std::size_t len = 0; len < frame.size(); ++len) {
      std::vector<std::uint8_t> truncated(frame.begin(),
                                          frame.begin() + static_cast<long>(len));
      EXPECT_FALSE(wire::open_frame(truncated).ok()) << "len " << len;
    }
    auto extended = frame;
    extended.push_back(0);
    EXPECT_FALSE(wire::open_frame(extended).ok());
  }
}

TEST(CodecCorruptionTest, TryDecodeNeverCrashesOnFlippedBodies) {
  // Bypass the CRC frame and attack the message codec directly: no byte
  // flip may crash or abort it. (A flip in free-form fields — a payload
  // byte, a sequence number — can still decode to a structurally valid
  // message; catching that is exactly what the CRC frame layer is for.)
  for (const auto& body : sample_bodies()) {
    for (std::size_t pos = 0; pos < body.size(); ++pos) {
      for (std::uint8_t mask : {std::uint8_t{0xFF}, std::uint8_t{0x01}}) {
        auto corrupted = body;
        corrupted[pos] ^= mask;
        (void)try_decode(corrupted);  // must return; value irrelevant
      }
    }
    for (std::size_t len = 0; len < body.size(); ++len) {
      std::vector<std::uint8_t> truncated(body.begin(),
                                          body.begin() + static_cast<long>(len));
      (void)try_decode(truncated);
    }
  }
}

TEST(CodecCorruptionTest, TryDecodeRejectsTrailingGarbage) {
  for (const auto& body : sample_bodies()) {
    auto extended = body;
    extended.push_back(0);
    EXPECT_FALSE(try_decode(extended).has_value());
  }
}

TEST(CodecCorruptionTest, HugeSeqSetCountRejectedWithoutAllocating) {
  // A corrupted interval count must not make the reader reserve gigabytes.
  wire::Writer w;
  w.u32(0xFFFFFFFF);  // claims 4 billion intervals
  w.u64(1);
  w.u64(2);
  const auto buf = w.take();
  wire::Reader r(buf);
  const SeqSet s = r.seq_set();
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(s.empty());
}

TEST(CodecCorruptionTest, RandomGarbageFuzz) {
  Rng rng(2026);
  for (int i = 0; i < 2000; ++i) {
    std::vector<std::uint8_t> garbage(rng.below(128));
    for (auto& b : garbage) b = static_cast<std::uint8_t>(rng());
    (void)wire::open_frame(garbage);  // must not crash
    (void)try_decode(garbage);        // must not crash
  }
}

TEST(CodecCorruptionTest, ProtocolInvariantsEnforcedByTryDecode) {
  // Forged frames with correct CRCs but invalid protocol fields must be
  // rejected by strict decoding.
  {
    TokenMsg t;  // aru above seq
    t.ring = RingId{1, ProcessId{1}};
    t.rotation = 1;
    t.seq = 5;
    t.aru = 9;
    auto buf = encode_msg(t);
    EXPECT_FALSE(try_decode(buf).has_value());
  }
  {
    JoinMsg j;  // unsorted candidate list
    j.sender = ProcessId{1};
    j.candidates = {ProcessId{5}, ProcessId{2}};
    auto buf = encode_msg(j);
    EXPECT_FALSE(try_decode(buf).has_value());
  }
  {
    FormRingMsg f;  // empty membership
    f.sender = ProcessId{1};
    f.ring = RingId{1, ProcessId{1}};
    auto buf = encode_msg(f);
    EXPECT_FALSE(try_decode(buf).has_value());
  }
  {
    BeaconMsg b;  // zero sender
    b.ring = RingId{1, ProcessId{1}};
    auto buf = encode_msg(b);
    EXPECT_FALSE(try_decode(buf).has_value());
  }
  {
    TokenHoldCancelMsg c;  // zero sender
    c.ring = RingId{1, ProcessId{1}};
    auto buf = encode_msg(c);
    EXPECT_FALSE(try_decode(buf).has_value());
  }
  {
    TokenHoldCancelMsg c;  // invalid ring id
    c.sender = ProcessId{2};
    auto buf = encode_msg(c);
    EXPECT_FALSE(try_decode(buf).has_value());
  }
}

}  // namespace
}  // namespace evs
