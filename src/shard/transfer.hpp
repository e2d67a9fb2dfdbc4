// Shard state transfer + anti-entropy: how a re-merged replica catches up.
//
// Extended virtual synchrony deliberately stops at delivery semantics: a
// replica that was partitioned away while the primary component kept
// ordering writes re-merges knowing exactly WHICH configuration changes it
// missed (the transitional configuration tells it so), but EVS does not —
// and cannot — replay the messages ordered in rings it never joined. The
// application must reconcile state. This module is that reconciliation for
// the sharded KV service (apps/kv_sharded.*).
//
// Everything rides the shard's own EVS ring as SAFE messages, totally
// ordered WITH the writes. That single decision does most of the work:
//
//   * Anchoring. A joiner's TransferRequest is broadcast and delivered at
//     one total-order position that joiner and donor observe identically.
//     The donor builds every chunk synchronously AT that delivery from its
//     current store; the joiner records every key it applies AFTER
//     delivering its own request and skips those keys while reconciling.
//     Writes concurrent with the transfer therefore cannot be lost or
//     reordered: any key the donor's snapshot undersells is exactly a key
//     the joiner has since applied itself.
//
//   * Deterministic arbitration. Donor election, digest beliefs, and the
//     ServeClaim tiebreak are all decided by message DELIVERY, so every
//     replica reaches the same verdict without extra agreement rounds.
//
// Catch-up lifecycle (per shard, per replica):
//
//   out of primary ──(regular config with assigned majority)──▶ catching_up
//       catching_up: writes still accepted (they are totally ordered and
//       applied like anyone else's); reads refused with Errc::catching_up
//       (get_stale() opts back in).
//   catching_up ──▶ serving, by the first of:
//       (a) chunks: a donor ships the differing digest buckets, CRC-framed
//           and size-bounded; the joiner reconciles idempotently;
//       (b) rule A: a serving peer's digest content-equals mine;
//       (c) rule B: every assigned replica in the configuration is known,
//           none serving, all content-equal (cluster birth);
//       (d) ServeClaim: nobody can serve (e.g. a majority crash wiped
//           stores) — the best-progressed replica claims, first claim
//           delivered after the config change wins everywhere.
//
// Robustness: every attempt carries a deadline; failures (torn chunk
// stream, CRC reject, donor silence, reconfiguration mid-transfer) abort
// the attempt and retry with exponential backoff, never wedge. Anti-entropy
// runs at a low duty cycle while serving: the lowest-id serving replica
// announces its digest; a serving peer that disagrees asks for the
// differing buckets (the authority filters buckets its own in-flight writes
// made spuriously stale) and repairs silent divergence in place.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "evs/node.hpp"
#include "obs/metrics.hpp"
#include "shard/digest.hpp"
#include "shard/kv_store.hpp"
#include "util/types.hpp"

namespace evs::shard {

// --- wire formats (first byte = op; all integers little-endian) -----------

enum class TransferOp : std::uint8_t {
  DigestAnnounce = 0x10,   ///< serving replica's digest (config install +
                           ///< periodic anti-entropy rounds)
  TransferRequest = 0x11,  ///< catching-up replica asks for a delta
  TransferChunk = 0x12,    ///< donor -> joiner bucket data (CRC trailer)
  RepairRequest = 0x13,    ///< anti-entropy: serving peer asks authority
  ServeClaim = 0x14,       ///< nobody serves: best replica claims the role
};
inline constexpr std::uint8_t kTransferOpLast = 0x14;

struct DigestAnnounceMsg {
  ProcessId sender;
  std::uint64_t round{0};
  StoreDigest digest;
};

/// Shape shared by TransferRequest and ServeClaim.
struct TransferRequestMsg {
  ProcessId sender;
  std::uint64_t session{0};
  StoreDigest digest;
};

struct ChunkEntry {
  std::string key;
  std::string value;
};

/// One digest bucket's contents (possibly one part of them: an oversized
/// bucket spans consecutive parts, `complete` set only on the last).
struct ChunkBucket {
  std::uint32_t bucket{0};
  bool complete{true};
  std::vector<ChunkEntry> entries;
};

inline constexpr std::uint8_t kChunkFlagRepair = 0x01;

/// chunk `index` of `count` for (joiner, session). A count of 1 with no
/// buckets is the "nothing to transfer" completion signal. The encoded
/// payload ends in a CRC-32 trailer over everything before it — transfers
/// move application state, so a corrupted chunk that slipped past (or was
/// re-sealed over) the frame CRC must still be caught before it reaches a
/// store.
struct TransferChunkMsg {
  ProcessId donor;
  ProcessId joiner;
  std::uint64_t session{0};
  std::uint8_t flags{0};
  std::uint32_t index{0};
  std::uint32_t count{1};
  std::vector<ChunkBucket> buckets;
};

struct RepairRequestMsg {
  ProcessId requester;
  ProcessId authority;
  std::uint64_t session{0};
  std::uint64_t round{0};  ///< the announce round being answered
  std::vector<std::uint32_t> buckets;
};

std::vector<std::uint8_t> encode_announce(const DigestAnnounceMsg& m);
std::vector<std::uint8_t> encode_request(const TransferRequestMsg& m,
                                         TransferOp op);
std::vector<std::uint8_t> encode_chunk(const TransferChunkMsg& m);
std::vector<std::uint8_t> encode_repair_request(const RepairRequestMsg& m);

std::optional<DigestAnnounceMsg> decode_announce(
    std::span<const std::uint8_t> p);
std::optional<TransferRequestMsg> decode_request(
    std::span<const std::uint8_t> p);
/// Structural decode only; run chunk_crc_ok first.
std::optional<TransferChunkMsg> decode_chunk(std::span<const std::uint8_t> p);
std::optional<RepairRequestMsg> decode_repair_request(
    std::span<const std::uint8_t> p);

/// Validate a TransferChunk payload's CRC-32 trailer.
bool chunk_crc_ok(std::span<const std::uint8_t> p);

// --- engine ----------------------------------------------------------------

struct TransferConfig {
  /// Soft byte ceiling per TransferChunk payload (an oversized single entry
  /// still travels alone; the node's max_payload_bytes is the hard cap).
  std::size_t max_chunk_bytes{24u * 1024};
  /// Engine timer period (deadlines, backoff, anti-entropy cadence).
  SimTime tick_interval_us{10'000};
  /// Joiner: deadline for one request attempt before it retries.
  SimTime request_timeout_us{150'000};
  /// Joiner: exponential backoff between attempts is capped here.
  SimTime backoff_cap_us{2'000'000};
  /// Anti-entropy announce period for the authority. 0 disables the
  /// background exchange (install-time announces still happen — they feed
  /// donor election and rule-A clearing).
  SimTime antientropy_interval_us{500'000};
  /// Requester-side deadline for an anti-entropy repair session.
  SimTime repair_timeout_us{300'000};
  /// Donor: resend attempts for a backpressured chunk batch.
  int donor_max_attempts{16};
};

/// Instrument handles for the transfer/anti-entropy subsystem, cached once
/// per agent (the registry owns the values; see obs/metrics.hpp).
struct TransferMet {
  explicit TransferMet(obs::MetricsRegistry& r);
  obs::Counter& sessions;           ///< kv.transfer.sessions (requests sent)
  obs::Counter& completed;          ///< kv.transfer.completed (catch-ups)
  obs::Counter& aborted;            ///< kv.transfer.aborted (failed attempts)
  obs::Counter& retries;            ///< kv.transfer.retries
  obs::Counter& chunks_sent;        ///< kv.transfer.chunks_sent
  obs::Counter& chunks_applied;     ///< kv.transfer.chunks_applied
  obs::Counter& bytes_sent;         ///< kv.transfer.bytes_sent
  obs::Counter& bytes_applied;      ///< kv.transfer.bytes_applied
  obs::Counter& chunk_crc_rejects;  ///< kv.transfer.chunk_crc_rejects
  obs::Counter& claims;             ///< kv.transfer.claims (claims sent)
  obs::Counter& reads_catching_up;  ///< kv.reads_catching_up (reads refused)
  obs::Counter& stale_reads;        ///< kv.stale_reads (get_stale served)
  obs::Counter& antientropy_rounds;   ///< kv.antientropy_rounds
  obs::Counter& antientropy_repairs;  ///< kv.antientropy_repairs (buckets fixed)
  obs::Histogram& catch_up_us;      ///< kv.transfer.catch_up_us
};

/// Per-(replica, shard) state machine. Owned by apps::KvShardedNode, one
/// per locally replicated shard; every method runs under the agent's lock.
/// The engine never touches the node outside the Ctx handed to it, and all
/// its sends go through EvsNode::send_batch on the shard's own ring.
class TransferEngine {
 public:
  /// Call-scoped environment: the agent owns all of these; the engine
  /// borrows them for one call.
  struct Ctx {
    KvStore& store;
    EvsNode& node;
    SimTime now;
    std::span<const ProcessId> assigned;  ///< router's replica group
    TransferMet& met;
  };

  TransferEngine(ProcessId self, TransferConfig cfg);

  /// A REGULAR configuration installed on the shard ring (the agent filters
  /// transitional installs out). Re-derives in-primary, resets beliefs and
  /// in-flight sessions, and — inside this call, so the messages land ahead
  /// of any later submission in the new ring's order — sends either a
  /// TransferRequest (catching up) or a DigestAnnounce (serving).
  void on_regular_config(const Configuration& config, Ctx ctx);

  /// Offer a SAFE-delivered payload whose first byte is in the transfer op
  /// range. True when consumed (any structurally valid transfer message,
  /// and any chunk failing its CRC trailer — that is a counted transfer
  /// event, not a decode failure). False means malformed: the agent counts
  /// it with the store's other rejects.
  bool handle_payload(std::span<const std::uint8_t> payload, Ctx ctx);

  /// A KV op for `key` was applied from the ring's total order. Feeds the
  /// anchor skip-sets and the announce's spurious-bucket window. O(log n).
  void on_kv_applied(std::string_view key);

  /// Periodic driver: attempt deadlines, backoff resends, ServeClaim
  /// escalation, donor retries, anti-entropy announce rounds.
  void tick(Ctx ctx);

  /// The process crashed: all volatile transfer state is gone (the agent
  /// clears the store alongside).
  void reset_for_crash();

  bool catching_up() const { return catching_up_; }
  bool in_primary() const { return in_primary_; }
  /// Serving = in primary and caught up: the read gate is open.
  bool serving() const { return in_primary_ && !catching_up_; }

 private:
  struct Peer {
    bool serving{false};
    bool have_digest{false};
    StoreDigest digest;
  };

  /// One side of a chunk stream being received (join catch-up or
  /// anti-entropy repair share the shape).
  struct Stream {
    bool donor_locked{false};
    ProcessId donor{};
    std::uint32_t next_index{0};
    std::uint32_t count{0};
    std::optional<std::uint32_t> partial_bucket;
    std::vector<ChunkEntry> partial_entries;
  };

  struct Join {
    std::uint64_t session{0};
    bool attempt_open{false};  ///< request sent, awaiting chunks
    bool anchored{false};      ///< own request delivered; `modified` active
    std::set<std::string, std::less<>> modified;
    Stream stream;
    SimTime deadline{0};
    SimTime next_attempt_at{0};
    std::uint32_t retries{0};
    std::uint32_t backoff_level{0};
    SimTime started_at{0};  ///< first attempt of this catching-up episode
  };

  struct DonorResend {
    ProcessId joiner{};
    std::uint64_t session{0};
    std::vector<std::vector<std::uint8_t>> chunks;
    SimTime retry_at{0};
    int attempts{0};
  };

  struct Announce {
    bool awaiting_self{false};  ///< announce queued, own delivery pending
    std::uint64_t round{0};
    /// Buckets we modified between queueing the announce and delivering it
    /// — exactly the set a receiver's comparison flags spuriously, since the
    /// receiver compares its post-delivery store with our pre-queue digest.
    std::set<std::uint32_t> modified_buckets;
    std::set<std::uint32_t> spurious;  ///< frozen at own announce delivery
    std::uint64_t spurious_round{0};
    SimTime next_at{0};
  };

  struct Repair {
    bool active{false};
    std::uint64_t session{0};
    ProcessId authority{};
    bool anchored{false};
    std::set<std::string, std::less<>> modified;
    Stream stream;
    SimTime deadline{0};
  };

  enum class ChunkVerdict {
    ignored,     ///< rival donor or stale stream; no state touched
    progressed,  ///< applied; more chunks expected
    violation,   ///< torn stream (index gap, part mismatch); caller aborts
    completed,   ///< final chunk applied cleanly
  };

  // --- delivery handlers ---
  void handle_announce(const DigestAnnounceMsg& m, Ctx ctx);
  void handle_request(const TransferRequestMsg& m, Ctx ctx);
  void handle_claim(const TransferRequestMsg& m, Ctx ctx);
  void handle_chunk(const TransferChunkMsg& m, std::size_t payload_bytes,
                    Ctx ctx);
  void handle_repair_request(const RepairRequestMsg& m, Ctx ctx);
  /// Route one chunk into a receive stream (join catch-up and anti-entropy
  /// repair share the machinery; `skip` is the stream's anchored skip-set).
  /// Every bucket the chunk completes is reconciled in one store pass.
  ChunkVerdict accept_chunk(Stream& s,
                            const std::set<std::string, std::less<>>& skip,
                            const TransferChunkMsg& m, bool count_repairs,
                            Ctx ctx);

  // --- joiner ---
  void start_catching_up(Ctx ctx);
  void start_attempt(Ctx ctx);
  /// Close the open attempt as failed. With `backoff`, schedules the next
  /// attempt exponentially later; without, the next tick retries at once.
  void abort_attempt(bool backoff, Ctx ctx);
  void complete_catch_up(Ctx ctx);
  /// Rules A/B: can `catching_up_` clear without a chunk stream? Evaluated
  /// at digest-carrying deliveries (a total-order position, so every
  /// replica that evaluates it sees the same beliefs).
  void rules_check(Ctx ctx);
  bool should_claim(Ctx ctx) const;

  // --- donor / authority ---
  bool is_donor(Ctx ctx) const;
  void respond_to_request(const TransferRequestMsg& m, Ctx ctx);
  void send_chunks(ProcessId joiner, std::uint64_t session, bool repair,
                   const std::vector<std::uint32_t>& buckets, Ctx ctx);
  void announce(Ctx ctx);

  // --- helpers ---
  void note_digest(ProcessId p, const StoreDigest& d, bool serving);
  std::size_t chunk_budget(Ctx ctx) const;
  /// Reconcile complete buckets onto the store in one pass over it,
  /// skipping `skip` keys (applied since the anchor: both sides already hold
  /// their post-write values). Returns how many buckets changed.
  std::size_t reconcile_buckets(
      const std::map<std::uint32_t, std::vector<ChunkEntry>>& buckets,
      const std::set<std::string, std::less<>>& skip, Ctx ctx);

  ProcessId self_;
  TransferConfig cfg_;
  std::vector<ProcessId> members_;  ///< current regular config's members

  bool in_primary_{false};
  bool was_out_{true};  ///< not in primary since attach/crash/partition
  bool catching_up_{false};
  bool claim_resolved_{false};  ///< a ServeClaim already won in this config
  std::uint64_t session_counter_{0};
  std::uint64_t ann_round_{0};

  std::map<ProcessId, Peer> peers_;  ///< beliefs; reset every regular config

  Join join_;
  std::vector<DonorResend> donor_resends_;
  Announce ann_;
  Repair repair_;
};

}  // namespace evs::shard
