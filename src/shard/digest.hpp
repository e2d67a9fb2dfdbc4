// Store digests for shard state transfer and anti-entropy (DESIGN.md
// "State transfer & anti-entropy").
//
// A digest summarizes one replica's shard store as an applied-op progress
// marker, a whole-store fingerprint, and kDigestBuckets per-bucket
// fingerprints, where a key's bucket is bucket_of(key) (both owned by
// shard/kv_store.hpp). Two replicas compare digests to decide
// (a) whether they hold byte-identical state (fingerprint equality — the
// basis for clearing `catching_up` without shipping anything) and
// (b) which buckets differ (the donor ships only those buckets, so
// transfer bytes scale with the delta, not the store).
//
// Bucket fingerprints are order-independent wrapping sums of per-entry
// hashes, so the same contents always digest identically regardless of
// mutation history — and the store keeps them current on every mutation,
// so taking a digest costs O(buckets), not O(store). `applied` is
// informational only: replicas with different delivery histories can hold
// equal content at different applied counts, so equality decisions MUST
// use same_content(), never applied.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "shard/kv_store.hpp"

namespace evs::shard {

struct StoreDigest {
  std::uint64_t applied{0};      ///< ops applied (progress marker only)
  std::uint64_t fingerprint{0};  ///< KvStore::fingerprint()
  std::vector<std::uint64_t> buckets;  ///< per-bucket content fingerprints
};

/// The store's current digest, read from its maintained sums. O(buckets).
StoreDigest digest_of(const KvStore& store);

/// The same digest with its buckets recomputed from scratch by walking every
/// entry. O(store); the reference the maintained sums are tested against.
StoreDigest compute_digest(const KvStore& store);

/// Content equality: fingerprints and bucket vectors equal. Ignores
/// `applied` (see the header comment for why).
bool same_content(const StoreDigest& a, const StoreDigest& b);

/// Buckets whose fingerprints differ between `mine` and `theirs` — the set
/// a donor must ship. Both digests have the one kDigestBuckets layout
/// (decode_digest rejects any other).
std::vector<std::uint32_t> diff_buckets(const StoreDigest& mine,
                                        const StoreDigest& theirs);

/// Wire helpers shared by the digest and transfer codecs (little-endian,
/// matching the kv op codec).
namespace wiredet {
void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v);
void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v);
/// Bounded reads: false when fewer than 4/8 bytes remain at `off`; on
/// success advances `off` past the value.
bool get_u32(std::span<const std::uint8_t> b, std::size_t& off,
             std::uint32_t& v);
bool get_u64(std::span<const std::uint8_t> b, std::size_t& off,
             std::uint64_t& v);
}  // namespace wiredet

/// Append the digest's wire form: [u64 applied][u64 fp][u32 n][u64 x n].
void encode_digest(std::vector<std::uint8_t>& out, const StoreDigest& d);

/// Strict bounded decode at `off`; advances `off` on success. A bucket count
/// other than kDigestBuckets is malformed input.
std::optional<StoreDigest> decode_digest(std::span<const std::uint8_t> b,
                                         std::size_t& off);

}  // namespace evs::shard
