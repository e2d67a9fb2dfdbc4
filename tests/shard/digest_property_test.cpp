// Property test for the store's maintained digest: after every step of a
// seeded random sequence — ordered applies (puts, overwrites with equal
// values, deletes of present and missing keys, malformed payloads),
// reconcile upserts and erases, and clears — the digest the store keeps
// current must equal the from-scratch reference exactly, and its
// fingerprint must equal that of a store rebuilt from the same contents by
// inserts alone.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "shard/digest.hpp"
#include "shard/kv_store.hpp"

namespace evs::shard {
namespace {

void expect_digest_current(const KvStore& s, int seed, int step) {
  const StoreDigest kept = digest_of(s);
  const StoreDigest ref = compute_digest(s);
  ASSERT_EQ(kept.buckets.size(), kDigestBuckets);
  ASSERT_EQ(kept.applied, ref.applied) << "seed=" << seed << " step=" << step;
  ASSERT_EQ(kept.buckets, ref.buckets) << "seed=" << seed << " step=" << step;
  KvStore rebuilt;
  for (const auto& [k, v] : s.contents()) rebuilt.upsert(k, v);
  ASSERT_EQ(kept.fingerprint, rebuilt.fingerprint())
      << "seed=" << seed << " step=" << step;
}

/// A small key space, so deletes and overwrites of present keys are
/// frequent: `per_bucket` keys in each of the first `nbuckets` buckets, so
/// every bucket sum covers several entries.
std::vector<std::string> colliding_keys(std::uint32_t nbuckets,
                                        std::size_t per_bucket) {
  std::vector<std::size_t> filled(nbuckets, 0);
  std::vector<std::string> pool;
  for (int i = 0; pool.size() < nbuckets * per_bucket; ++i) {
    std::string k = "k" + std::to_string(i);
    const std::uint32_t b = bucket_of(k);
    if (b >= nbuckets || filled[b] == per_bucket) continue;
    ++filled[b];
    pool.push_back(std::move(k));
  }
  return pool;
}

TEST(DigestPropertyTest, MaintainedDigestMatchesReferenceAfterEveryStep) {
  constexpr int kSeeds = 24;
  constexpr int kSteps = 400;
  const std::vector<std::string> pool = colliding_keys(6, 8);
  const std::uint8_t junk[] = {0x01, 0xff};
  for (int seed = 1; seed <= kSeeds; ++seed) {
    std::mt19937_64 rng(static_cast<std::uint64_t>(seed));
    const auto key = [&] { return pool[rng() % pool.size()]; };
    // A few short values, so equal-value overwrites happen too.
    const auto value = [&] {
      const std::size_t len = rng() % 4;
      return std::string(len, static_cast<char>('a' + rng() % 3));
    };
    KvStore s;
    for (int step = 0; step < kSteps; ++step) {
      const std::uint64_t pick = rng() % 100;
      if (pick < 40) {
        ASSERT_TRUE(s.apply(encode_op(KvOp::Put, key(), value())).has_value());
      } else if (pick < 60) {
        ASSERT_TRUE(s.apply(encode_op(KvOp::Del, key(), {})).has_value());
      } else if (pick < 80) {
        s.upsert(key(), value());
      } else if (pick < 95) {
        s.erase_key(key());
      } else if (pick < 98) {
        ASSERT_FALSE(s.apply(junk).has_value());  // rejected: no change
      } else {
        s.clear();
      }
      ASSERT_NO_FATAL_FAILURE(expect_digest_current(s, seed, step));
    }
  }
}

}  // namespace
}  // namespace evs::shard
