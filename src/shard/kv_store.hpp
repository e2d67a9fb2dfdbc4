// Per-shard replicated KV state machine: the deterministic apply side of
// the sharded service, shared by the sim and live harnesses.
//
// Operations travel as opaque payloads in the shard ring's total order;
// every in-shard replica applies the same sequence to an identical map.
// The codec is deliberately tiny — [op u8][klen u32][key][vlen u32][value],
// little-endian — and strict: a payload that does not parse is counted and
// ignored rather than applied differently on different replicas.
//
// Besides the ordered apply path the store supports the state-transfer /
// anti-entropy machinery (src/shard/transfer.*): it owns the digest's
// bucket layout and keeps the digest current itself — kDigestBuckets
// per-bucket fingerprints, each an order-independent sum of per-entry
// hashes, so every mutator updates them in O(1) and producing a digest
// (the buckets plus the whole-store fingerprint folded from them) costs
// O(buckets), never O(store). The
// reconcile mutators (upsert/erase) let a transfer engine converge a stale
// replica onto a donor's state outside the ring order; they are counted
// separately from applied ops.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace evs::shard {

enum class KvOp : std::uint8_t {
  Put = 1,
  Del = 2,
};

/// First opcode byte reserved for the state-transfer / anti-entropy message
/// family (src/shard/transfer.*). KvStore::apply rejects them; the agent
/// routes them to its transfer engine before the store ever sees them.
inline constexpr std::uint8_t kTransferOpFirst = 0x10;

/// Encode one operation (Del ignores `value`).
std::vector<std::uint8_t> encode_op(KvOp op, std::string_view key,
                                    std::string_view value);

struct DecodedOp {
  KvOp op;
  std::string_view key;    // views into the encoded buffer
  std::string_view value;
};

/// Strict decode; nullopt on any malformed length/op.
std::optional<DecodedOp> decode_op(std::span<const std::uint8_t> payload);

/// FNV-1a over one entry (key and value, with lengths mixed in so
/// ("ab","c") and ("a","bc") hash apart). The unit of the store fingerprint
/// and of the per-bucket digest fingerprints (src/shard/digest.*).
std::uint64_t entry_hash(std::string_view key, std::string_view value);

/// The digest's one bucket layout: every replica splits its store into this
/// many buckets, and a digest with any other count is malformed.
inline constexpr std::uint32_t kDigestBuckets = 1024;

/// The digest bucket a key belongs to: FNV-1a over the key alone (the
/// bucket must not move when a value changes) modulo kDigestBuckets.
std::uint32_t bucket_of(std::string_view key);

/// One shard's key space on one replica. Not thread-safe: the sim harness
/// is single-threaded, and the live agent (apps::KvShardedNode) makes every
/// call, applies and reads alike, under its own mutex.
class KvStore {
 public:
  struct Stats {
    std::uint64_t applied{0};        ///< ops applied in total order
    std::uint64_t rejected_decode{0};  ///< malformed payloads ignored
    std::uint64_t reconciled{0};     ///< entries changed by state transfer
  };

  /// Apply the next operation of the shard's total order. Returns the
  /// decoded op (views valid only while `payload` is) so the caller can
  /// observe which key changed, or nullopt when the payload was rejected.
  std::optional<DecodedOp> apply(std::span<const std::uint8_t> payload);

  std::optional<std::string> get(std::string_view key) const;
  std::size_t size() const { return map_.size(); }
  const Stats& stats() const { return stats_; }

  /// Order-independent 64-bit digest of the full contents (wrapping sum of
  /// entry_hash over all entries, folded with the size). O(buckets), from
  /// the maintained bucket sums; equal stores always produce equal
  /// fingerprints.
  std::uint64_t fingerprint() const;

  /// Per-bucket wrapping sums of entry_hash, indexed by bucket_of(key);
  /// always kDigestBuckets long. Maintained by every mutator in O(1).
  std::span<const std::uint64_t> bucket_sums() const { return bucket_sums_; }

  // --- state-transfer reconcile path (bypasses the ring order) ---
  /// Set `key` to `value` if it differs; true when the store changed.
  bool upsert(std::string_view key, std::string_view value);
  /// Remove `key`; true when it existed.
  bool erase_key(std::string_view key);
  /// Drop all contents AND stats (crash model: the store is volatile app
  /// state, and its applied-op count is a progress marker the transfer
  /// digests compare — a wiped store must not keep claiming progress).
  /// Durable observability lives in the agent's metrics registry instead.
  void clear();

  /// The full map (test/bench support: replica comparison; the transfer
  /// engine's chunk builders iterate it read-only).
  const std::map<std::string, std::string, std::less<>>& contents() const {
    return map_;
  }

 private:
  /// Set `key` to `value`, keeping the sums current; false when unchanged.
  bool assign(std::string_view key, std::string_view value);
  /// Remove `key`, keeping the sums current; false when absent.
  bool remove(std::string_view key);

  std::map<std::string, std::string, std::less<>> map_;
  /// Wrapping sum of entry_hash per bucket_of(key), over map_.
  std::vector<std::uint64_t> bucket_sums_ =
      std::vector<std::uint64_t>(kDigestBuckets);
  Stats stats_;
};

}  // namespace evs::shard
