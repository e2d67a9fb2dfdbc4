// Units for the state-transfer building blocks: store digests (bucketed
// content fingerprints), the transfer message codecs, and the TransferChunk
// CRC-32 trailer that guards application state against corruption the
// frame layer missed (or that was re-sealed over — see
// FaultRule::corrupt_sealed).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "shard/digest.hpp"
#include "shard/kv_store.hpp"
#include "shard/transfer.hpp"

namespace evs::shard {
namespace {

KvStore store_with(const std::vector<std::pair<std::string, std::string>>& kv) {
  KvStore s;
  for (const auto& [k, v] : kv) {
    const auto op = encode_op(KvOp::Put, k, v);
    EXPECT_TRUE(s.apply(op).has_value());
  }
  return s;
}

TEST(DigestTest, SameContentsDigestEquallyRegardlessOfHistory) {
  // Same final contents via different op sequences: digests content-equal,
  // applied counts differ — and same_content must ignore applied.
  KvStore a = store_with({{"alpha", "1"}, {"beta", "2"}});
  KvStore b = store_with({{"beta", "x"}, {"alpha", "1"}, {"beta", "2"}});
  const StoreDigest da = compute_digest(a);
  const StoreDigest db = compute_digest(b);
  EXPECT_TRUE(same_content(da, db));
  EXPECT_NE(da.applied, db.applied);
  EXPECT_EQ(da.fingerprint, a.fingerprint());
  EXPECT_TRUE(diff_buckets(da, db).empty());
}

TEST(DigestTest, DiffBucketsFlagsExactlyTheChangedKeysBuckets) {
  KvStore a = store_with({{"k1", "v"}, {"k2", "v"}, {"k3", "v"}});
  KvStore b = store_with({{"k1", "v"}, {"k2", "CHANGED"}, {"k3", "v"}});
  const auto diff = diff_buckets(compute_digest(a), compute_digest(b));
  ASSERT_EQ(diff.size(), 1u);
  EXPECT_EQ(diff[0], bucket_of("k2"));

  // A missing key diffs its bucket too.
  KvStore c = store_with({{"k1", "v"}, {"k3", "v"}});
  const auto gone = diff_buckets(compute_digest(a), compute_digest(c));
  ASSERT_EQ(gone.size(), 1u);
  EXPECT_EQ(gone[0], bucket_of("k2"));
}

TEST(DigestTest, DecodeRejectsForeignBucketLayout) {
  // There is one bucket layout; a digest claiming any other bucket count is
  // malformed input, not a peer to compare against.
  KvStore a = store_with({{"k", "v"}});
  for (const std::uint32_t n : {0u, 1u, 8u, kDigestBuckets - 1,
                                kDigestBuckets + 1}) {
    StoreDigest d = compute_digest(a);
    d.buckets.resize(n);
    std::vector<std::uint8_t> buf;
    encode_digest(buf, d);
    std::size_t off = 0;
    EXPECT_FALSE(decode_digest(buf, off).has_value()) << "n=" << n;
  }
  std::vector<std::uint8_t> buf;
  encode_digest(buf, compute_digest(a));
  std::size_t off = 0;
  EXPECT_TRUE(decode_digest(buf, off).has_value());
}

TEST(DigestTest, BucketOfIsValueIndependent) {
  // The bucket must depend on the key alone: a value change may not move
  // the entry to another bucket, or deltas would be undetectable.
  KvStore a = store_with({{"some-key", "v1"}});
  KvStore b = store_with({{"some-key", "a much longer value"}});
  const auto diff = diff_buckets(compute_digest(a), compute_digest(b));
  ASSERT_EQ(diff.size(), 1u);
  EXPECT_EQ(diff[0], bucket_of("some-key"));
  EXPECT_LT(bucket_of("some-key"), kDigestBuckets);
}

TEST(DigestTest, WireRoundTripAndStrictDecode) {
  KvStore a = store_with({{"k1", "v1"}, {"k2", "v2"}});
  const StoreDigest d = compute_digest(a);
  std::vector<std::uint8_t> buf;
  encode_digest(buf, d);

  std::size_t off = 0;
  const auto back = decode_digest(buf, off);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(off, buf.size());
  EXPECT_EQ(back->applied, d.applied);
  EXPECT_EQ(back->fingerprint, d.fingerprint);
  EXPECT_EQ(back->buckets, d.buckets);

  // Truncation anywhere fails cleanly.
  for (std::size_t cut = 0; cut < buf.size(); ++cut) {
    std::size_t o = 0;
    EXPECT_FALSE(
        decode_digest(std::span(buf.data(), cut), o).has_value())
        << "cut=" << cut;
  }
}

TEST(TransferCodecTest, AnnounceAndRequestRoundTrip) {
  KvStore s = store_with({{"a", "1"}});
  DigestAnnounceMsg ann{ProcessId{3}, 17, compute_digest(s)};
  const auto ab = encode_announce(ann);
  ASSERT_FALSE(ab.empty());
  EXPECT_EQ(ab[0], static_cast<std::uint8_t>(TransferOp::DigestAnnounce));
  const auto a2 = decode_announce(ab);
  ASSERT_TRUE(a2.has_value());
  EXPECT_EQ(a2->sender, ann.sender);
  EXPECT_EQ(a2->round, ann.round);
  EXPECT_TRUE(same_content(a2->digest, ann.digest));

  TransferRequestMsg req{ProcessId{5}, 99, compute_digest(s)};
  for (const TransferOp op :
       {TransferOp::TransferRequest, TransferOp::ServeClaim}) {
    const auto rb = encode_request(req, op);
    EXPECT_EQ(rb[0], static_cast<std::uint8_t>(op));
    const auto r2 = decode_request(rb);
    ASSERT_TRUE(r2.has_value());
    EXPECT_EQ(r2->sender, req.sender);
    EXPECT_EQ(r2->session, req.session);
  }

  // Cross-decoding is rejected: an announce is not a request.
  EXPECT_FALSE(decode_request(ab).has_value());
}

TEST(TransferCodecTest, RepairRequestRoundTrip) {
  RepairRequestMsg m;
  m.requester = ProcessId{2};
  m.authority = ProcessId{1};
  m.session = 7;
  m.round = 3;
  m.buckets = {0, 5, 1023};
  const auto b = encode_repair_request(m);
  const auto back = decode_repair_request(b);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->requester, m.requester);
  EXPECT_EQ(back->authority, m.authority);
  EXPECT_EQ(back->session, m.session);
  EXPECT_EQ(back->round, m.round);
  EXPECT_EQ(back->buckets, m.buckets);
}

TransferChunkMsg sample_chunk() {
  TransferChunkMsg m;
  m.donor = ProcessId{1};
  m.joiner = ProcessId{4};
  m.session = 42;
  m.flags = kChunkFlagRepair;
  m.index = 2;
  m.count = 5;
  ChunkBucket full;
  full.bucket = 9;
  full.complete = true;
  full.entries = {{"key-a", "value-a"}, {"key-b", std::string(100, 'x')}};
  ChunkBucket part;
  part.bucket = 10;
  part.complete = false;
  part.entries = {{"key-c", ""}};
  ChunkBucket empty;  // erase-extras signal: bucket present, no entries
  empty.bucket = 11;
  empty.complete = true;
  m.buckets = {full, part, empty};
  return m;
}

TEST(TransferCodecTest, ChunkRoundTripWithCrcTrailer) {
  const TransferChunkMsg m = sample_chunk();
  const auto b = encode_chunk(m);
  ASSERT_TRUE(chunk_crc_ok(b));
  const auto back = decode_chunk(b);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->donor, m.donor);
  EXPECT_EQ(back->joiner, m.joiner);
  EXPECT_EQ(back->session, m.session);
  EXPECT_EQ(back->flags, m.flags);
  EXPECT_EQ(back->index, m.index);
  EXPECT_EQ(back->count, m.count);
  ASSERT_EQ(back->buckets.size(), m.buckets.size());
  for (std::size_t i = 0; i < m.buckets.size(); ++i) {
    EXPECT_EQ(back->buckets[i].bucket, m.buckets[i].bucket);
    EXPECT_EQ(back->buckets[i].complete, m.buckets[i].complete);
    ASSERT_EQ(back->buckets[i].entries.size(), m.buckets[i].entries.size());
    for (std::size_t j = 0; j < m.buckets[i].entries.size(); ++j) {
      EXPECT_EQ(back->buckets[i].entries[j].key, m.buckets[i].entries[j].key);
      EXPECT_EQ(back->buckets[i].entries[j].value,
                m.buckets[i].entries[j].value);
    }
  }
}

TEST(TransferCodecTest, ChunkCrcCatchesEveryFlippedByte) {
  const auto b = encode_chunk(sample_chunk());
  for (std::size_t pos = 0; pos < b.size(); ++pos) {
    auto bad = b;
    bad[pos] ^= 0x40;
    EXPECT_FALSE(chunk_crc_ok(bad)) << "pos=" << pos;
  }
}

TEST(TransferCodecTest, ChunkDecodeIsStrict) {
  const auto b = encode_chunk(sample_chunk());
  // Truncation at every boundary fails cleanly (never asserts/overflows).
  for (std::size_t cut = 0; cut < b.size(); ++cut) {
    EXPECT_FALSE(decode_chunk(std::span(b.data(), cut)).has_value())
        << "cut=" << cut;
  }
  // Trailing slack is rejected too — the codec is exact-length.
  auto slack = b;
  slack.push_back(0);
  EXPECT_FALSE(decode_chunk(slack).has_value());
  // count == 0 and index >= count are structurally invalid.
  TransferChunkMsg zero = sample_chunk();
  zero.count = 0;
  zero.index = 0;
  EXPECT_FALSE(decode_chunk(encode_chunk(zero)).has_value());
  TransferChunkMsg oob = sample_chunk();
  oob.index = oob.count;
  EXPECT_FALSE(decode_chunk(encode_chunk(oob)).has_value());
}

TEST(TransferCodecTest, CompletionChunkIsMinimal) {
  // The "nothing to transfer" completion: one chunk, zero buckets.
  TransferChunkMsg done;
  done.donor = ProcessId{1};
  done.joiner = ProcessId{2};
  done.session = 1;
  done.index = 0;
  done.count = 1;
  const auto b = encode_chunk(done);
  ASSERT_TRUE(chunk_crc_ok(b));
  const auto back = decode_chunk(b);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->buckets.empty());
}

}  // namespace
}  // namespace evs::shard
