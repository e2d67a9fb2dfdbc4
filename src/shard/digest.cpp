#include "shard/digest.hpp"

#include <algorithm>

namespace evs::shard {

namespace wiredet {

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

bool get_u32(std::span<const std::uint8_t> b, std::size_t& off,
             std::uint32_t& v) {
  if (b.size() < off + 4) return false;
  v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(b[off + i]) << (8 * i);
  }
  off += 4;
  return true;
}

bool get_u64(std::span<const std::uint8_t> b, std::size_t& off,
             std::uint64_t& v) {
  if (b.size() < off + 8) return false;
  v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(b[off + i]) << (8 * i);
  }
  off += 8;
  return true;
}

}  // namespace wiredet

StoreDigest digest_of(const KvStore& store) {
  const auto sums = store.bucket_sums();
  return StoreDigest{store.stats().applied, store.fingerprint(),
                     std::vector<std::uint64_t>(sums.begin(), sums.end())};
}

StoreDigest compute_digest(const KvStore& store) {
  StoreDigest d;
  d.applied = store.stats().applied;
  d.fingerprint = store.fingerprint();
  d.buckets.assign(kDigestBuckets, 0);
  for (const auto& [k, v] : store.contents()) {
    d.buckets[bucket_of(k)] += entry_hash(k, v);
  }
  return d;
}

bool same_content(const StoreDigest& a, const StoreDigest& b) {
  return a.fingerprint == b.fingerprint && a.buckets == b.buckets;
}

std::vector<std::uint32_t> diff_buckets(const StoreDigest& mine,
                                        const StoreDigest& theirs) {
  std::vector<std::uint32_t> out;
  const std::size_t n = std::min(mine.buckets.size(), theirs.buckets.size());
  for (std::uint32_t i = 0; i < n; ++i) {
    if (mine.buckets[i] != theirs.buckets[i]) out.push_back(i);
  }
  return out;
}

void encode_digest(std::vector<std::uint8_t>& out, const StoreDigest& d) {
  wiredet::put_u64(out, d.applied);
  wiredet::put_u64(out, d.fingerprint);
  wiredet::put_u32(out, static_cast<std::uint32_t>(d.buckets.size()));
  for (const std::uint64_t b : d.buckets) wiredet::put_u64(out, b);
}

std::optional<StoreDigest> decode_digest(std::span<const std::uint8_t> b,
                                         std::size_t& off) {
  StoreDigest d;
  std::uint32_t n = 0;
  if (!wiredet::get_u64(b, off, d.applied)) return std::nullopt;
  if (!wiredet::get_u64(b, off, d.fingerprint)) return std::nullopt;
  if (!wiredet::get_u32(b, off, n)) return std::nullopt;
  if (n != kDigestBuckets) return std::nullopt;
  if (b.size() - off < static_cast<std::size_t>(n) * 8) return std::nullopt;
  d.buckets.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    (void)wiredet::get_u64(b, off, d.buckets[i]);
  }
  return d;
}

}  // namespace evs::shard
