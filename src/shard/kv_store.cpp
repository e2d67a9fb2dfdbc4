#include "shard/kv_store.hpp"

namespace evs::shard {

namespace {

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

std::uint32_t get_u32(std::span<const std::uint8_t> b, std::size_t off) {
  return static_cast<std::uint32_t>(b[off]) |
         (static_cast<std::uint32_t>(b[off + 1]) << 8) |
         (static_cast<std::uint32_t>(b[off + 2]) << 16) |
         (static_cast<std::uint32_t>(b[off + 3]) << 24);
}

constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t fnv1a(std::uint64_t h, std::string_view s) {
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t fnv1a_u64(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= static_cast<std::uint8_t>(v >> (8 * i));
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace

std::uint64_t entry_hash(std::string_view key, std::string_view value) {
  std::uint64_t h = kFnvOffset;
  h = fnv1a_u64(h, key.size());
  h = fnv1a(h, key);
  h = fnv1a_u64(h, value.size());
  h = fnv1a(h, value);
  // An entry hash of 0 would be invisible to the wrapping sum; remap it.
  return h == 0 ? 1 : h;
}

std::vector<std::uint8_t> encode_op(KvOp op, std::string_view key,
                                    std::string_view value) {
  std::vector<std::uint8_t> out;
  out.reserve(1 + 4 + key.size() + 4 + value.size());
  out.push_back(static_cast<std::uint8_t>(op));
  put_u32(out, static_cast<std::uint32_t>(key.size()));
  out.insert(out.end(), key.begin(), key.end());
  const std::string_view v = op == KvOp::Del ? std::string_view{} : value;
  put_u32(out, static_cast<std::uint32_t>(v.size()));
  out.insert(out.end(), v.begin(), v.end());
  return out;
}

std::optional<DecodedOp> decode_op(std::span<const std::uint8_t> payload) {
  if (payload.size() < 1 + 4) return std::nullopt;
  const auto op = static_cast<KvOp>(payload[0]);
  if (op != KvOp::Put && op != KvOp::Del) return std::nullopt;
  const std::uint32_t klen = get_u32(payload, 1);
  std::size_t off = 1 + 4;
  if (payload.size() - off < klen) return std::nullopt;
  const auto* base = reinterpret_cast<const char*>(payload.data());
  const std::string_view key(base + off, klen);
  off += klen;
  if (payload.size() - off < 4) return std::nullopt;
  const std::uint32_t vlen = get_u32(payload, off);
  off += 4;
  if (payload.size() - off != vlen) return std::nullopt;  // strict: no slack
  const std::string_view value(base + off, vlen);
  return DecodedOp{op, key, value};
}

std::uint32_t bucket_of(std::string_view key) {
  return static_cast<std::uint32_t>(fnv1a(kFnvOffset, key) % kDigestBuckets);
}

std::optional<DecodedOp> KvStore::apply(std::span<const std::uint8_t> payload) {
  const auto d = decode_op(payload);
  if (!d.has_value()) {
    ++stats_.rejected_decode;
    return std::nullopt;
  }
  switch (d->op) {
    case KvOp::Put:
      assign(d->key, d->value);
      break;
    case KvOp::Del:
      remove(d->key);
      break;
  }
  ++stats_.applied;
  return d;
}

std::optional<std::string> KvStore::get(std::string_view key) const {
  const auto it = map_.find(key);
  if (it == map_.end()) return std::nullopt;
  return it->second;
}

std::uint64_t KvStore::fingerprint() const {
  std::uint64_t sum = 0;  // wrapping sum of entry_hash over every entry
  for (const std::uint64_t b : bucket_sums_) sum += b;
  // Fold the size in so {} and a hash-collision pair stay distinguishable
  // by cardinality at least.
  return fnv1a_u64(fnv1a_u64(kFnvOffset, sum), map_.size());
}

bool KvStore::upsert(std::string_view key, std::string_view value) {
  if (!assign(key, value)) return false;
  ++stats_.reconciled;
  return true;
}

bool KvStore::erase_key(std::string_view key) {
  if (!remove(key)) return false;
  ++stats_.reconciled;
  return true;
}

void KvStore::clear() {
  map_.clear();
  bucket_sums_.assign(kDigestBuckets, 0);
  stats_ = Stats{};
}

bool KvStore::assign(std::string_view key, std::string_view value) {
  const std::uint32_t bucket = bucket_of(key);
  const auto it = map_.find(key);
  if (it == map_.end()) {
    map_.emplace(std::string(key), std::string(value));
  } else {
    if (it->second == value) return false;
    bucket_sums_[bucket] -= entry_hash(it->first, it->second);
    it->second.assign(value);
  }
  bucket_sums_[bucket] += entry_hash(key, value);
  return true;
}

bool KvStore::remove(std::string_view key) {
  const auto it = map_.find(key);
  if (it == map_.end()) return false;
  bucket_sums_[bucket_of(key)] -= entry_hash(it->first, it->second);
  map_.erase(it);
  return true;
}

}  // namespace evs::shard
