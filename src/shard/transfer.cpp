#include "shard/transfer.hpp"

#include <algorithm>

#include "wire/codec.hpp"

namespace evs::shard {

using wiredet::get_u32;
using wiredet::get_u64;
using wiredet::put_u32;
using wiredet::put_u64;

namespace {

// Encoded-size bookkeeping for the chunk packer.
constexpr std::size_t kChunkHeaderBytes = 1 + 4 + 4 + 8 + 1 + 4 + 4 + 4;
constexpr std::size_t kChunkCrcBytes = 4;
constexpr std::size_t kBucketHeaderBytes = 4 + 1 + 4;
std::size_t entry_bytes(const ChunkEntry& e) {
  return 4 + e.key.size() + 4 + e.value.size();
}

bool contains(const std::vector<ProcessId>& v, ProcessId p) {
  return std::find(v.begin(), v.end(), p) != v.end();
}

}  // namespace

// --- codecs ----------------------------------------------------------------

std::vector<std::uint8_t> encode_announce(const DigestAnnounceMsg& m) {
  std::vector<std::uint8_t> out;
  out.push_back(static_cast<std::uint8_t>(TransferOp::DigestAnnounce));
  put_u32(out, m.sender.value);
  put_u64(out, m.round);
  encode_digest(out, m.digest);
  return out;
}

std::optional<DigestAnnounceMsg> decode_announce(
    std::span<const std::uint8_t> p) {
  if (p.empty() ||
      p[0] != static_cast<std::uint8_t>(TransferOp::DigestAnnounce)) {
    return std::nullopt;
  }
  DigestAnnounceMsg m;
  std::size_t off = 1;
  if (!get_u32(p, off, m.sender.value)) return std::nullopt;
  if (!get_u64(p, off, m.round)) return std::nullopt;
  auto d = decode_digest(p, off);
  if (!d.has_value() || off != p.size()) return std::nullopt;
  m.digest = std::move(*d);
  return m;
}

std::vector<std::uint8_t> encode_request(const TransferRequestMsg& m,
                                         TransferOp op) {
  std::vector<std::uint8_t> out;
  out.push_back(static_cast<std::uint8_t>(op));
  put_u32(out, m.sender.value);
  put_u64(out, m.session);
  encode_digest(out, m.digest);
  return out;
}

std::optional<TransferRequestMsg> decode_request(
    std::span<const std::uint8_t> p) {
  if (p.empty() ||
      (p[0] != static_cast<std::uint8_t>(TransferOp::TransferRequest) &&
       p[0] != static_cast<std::uint8_t>(TransferOp::ServeClaim))) {
    return std::nullopt;
  }
  TransferRequestMsg m;
  std::size_t off = 1;
  if (!get_u32(p, off, m.sender.value)) return std::nullopt;
  if (!get_u64(p, off, m.session)) return std::nullopt;
  auto d = decode_digest(p, off);
  if (!d.has_value() || off != p.size()) return std::nullopt;
  m.digest = std::move(*d);
  return m;
}

std::vector<std::uint8_t> encode_chunk(const TransferChunkMsg& m) {
  std::vector<std::uint8_t> out;
  out.push_back(static_cast<std::uint8_t>(TransferOp::TransferChunk));
  put_u32(out, m.donor.value);
  put_u32(out, m.joiner.value);
  put_u64(out, m.session);
  out.push_back(m.flags);
  put_u32(out, m.index);
  put_u32(out, m.count);
  put_u32(out, static_cast<std::uint32_t>(m.buckets.size()));
  for (const ChunkBucket& b : m.buckets) {
    put_u32(out, b.bucket);
    out.push_back(b.complete ? 1 : 0);
    put_u32(out, static_cast<std::uint32_t>(b.entries.size()));
    for (const ChunkEntry& e : b.entries) {
      put_u32(out, static_cast<std::uint32_t>(e.key.size()));
      out.insert(out.end(), e.key.begin(), e.key.end());
      put_u32(out, static_cast<std::uint32_t>(e.value.size()));
      out.insert(out.end(), e.value.begin(), e.value.end());
    }
  }
  // CRC trailer over everything above: the chunk carries application state,
  // so it gets its own end-to-end check on top of the frame CRC.
  put_u32(out, wire::crc32(out));
  return out;
}

bool chunk_crc_ok(std::span<const std::uint8_t> p) {
  if (p.size() < kChunkHeaderBytes + kChunkCrcBytes) return false;
  std::size_t off = p.size() - kChunkCrcBytes;
  std::uint32_t trailer = 0;
  (void)get_u32(p, off, trailer);
  return wire::crc32(p.first(p.size() - kChunkCrcBytes)) == trailer;
}

std::optional<TransferChunkMsg> decode_chunk(std::span<const std::uint8_t> p) {
  if (p.size() < kChunkHeaderBytes + kChunkCrcBytes ||
      p[0] != static_cast<std::uint8_t>(TransferOp::TransferChunk)) {
    return std::nullopt;
  }
  const std::size_t end = p.size() - kChunkCrcBytes;  // body stops at the CRC
  const auto body = p.first(end);
  TransferChunkMsg m;
  std::size_t off = 1;
  std::uint32_t nbuckets = 0;
  if (!get_u32(body, off, m.donor.value)) return std::nullopt;
  if (!get_u32(body, off, m.joiner.value)) return std::nullopt;
  if (!get_u64(body, off, m.session)) return std::nullopt;
  m.flags = body[off++];
  if (!get_u32(body, off, m.index)) return std::nullopt;
  if (!get_u32(body, off, m.count)) return std::nullopt;
  if (!get_u32(body, off, nbuckets)) return std::nullopt;
  if (m.count == 0 || m.index >= m.count) return std::nullopt;
  if (nbuckets > kDigestBuckets) return std::nullopt;
  m.buckets.reserve(nbuckets);
  const auto* base = reinterpret_cast<const char*>(body.data());
  for (std::uint32_t i = 0; i < nbuckets; ++i) {
    ChunkBucket b;
    std::uint32_t nentries = 0;
    std::uint8_t complete = 0;
    if (!get_u32(body, off, b.bucket)) return std::nullopt;
    if (off >= end) return std::nullopt;
    complete = body[off++];
    if (complete > 1) return std::nullopt;
    b.complete = complete == 1;
    if (!get_u32(body, off, nentries)) return std::nullopt;
    // Each entry consumes at least 8 bytes, so nentries is implicitly
    // bounded by the payload size; check it explicitly anyway.
    if (static_cast<std::size_t>(nentries) * 8 > end - off) return std::nullopt;
    b.entries.reserve(nentries);
    for (std::uint32_t j = 0; j < nentries; ++j) {
      ChunkEntry e;
      std::uint32_t klen = 0;
      std::uint32_t vlen = 0;
      if (!get_u32(body, off, klen)) return std::nullopt;
      if (klen > end - off) return std::nullopt;
      e.key.assign(base + off, klen);
      off += klen;
      if (!get_u32(body, off, vlen)) return std::nullopt;
      if (vlen > end - off) return std::nullopt;
      e.value.assign(base + off, vlen);
      off += vlen;
      b.entries.push_back(std::move(e));
    }
    m.buckets.push_back(std::move(b));
  }
  if (off != end) return std::nullopt;  // strict: no slack bytes
  return m;
}

std::vector<std::uint8_t> encode_repair_request(const RepairRequestMsg& m) {
  std::vector<std::uint8_t> out;
  out.push_back(static_cast<std::uint8_t>(TransferOp::RepairRequest));
  put_u32(out, m.requester.value);
  put_u32(out, m.authority.value);
  put_u64(out, m.session);
  put_u64(out, m.round);
  put_u32(out, static_cast<std::uint32_t>(m.buckets.size()));
  for (const std::uint32_t b : m.buckets) put_u32(out, b);
  return out;
}

std::optional<RepairRequestMsg> decode_repair_request(
    std::span<const std::uint8_t> p) {
  if (p.empty() ||
      p[0] != static_cast<std::uint8_t>(TransferOp::RepairRequest)) {
    return std::nullopt;
  }
  RepairRequestMsg m;
  std::size_t off = 1;
  std::uint32_t n = 0;
  if (!get_u32(p, off, m.requester.value)) return std::nullopt;
  if (!get_u32(p, off, m.authority.value)) return std::nullopt;
  if (!get_u64(p, off, m.session)) return std::nullopt;
  if (!get_u64(p, off, m.round)) return std::nullopt;
  if (!get_u32(p, off, n)) return std::nullopt;
  if (n > kDigestBuckets) return std::nullopt;
  if (p.size() - off != static_cast<std::size_t>(n) * 4) return std::nullopt;
  m.buckets.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) (void)get_u32(p, off, m.buckets[i]);
  return m;
}

// --- metrics ---------------------------------------------------------------

TransferMet::TransferMet(obs::MetricsRegistry& r)
    : sessions(r.counter("kv.transfer.sessions")),
      completed(r.counter("kv.transfer.completed")),
      aborted(r.counter("kv.transfer.aborted")),
      retries(r.counter("kv.transfer.retries")),
      chunks_sent(r.counter("kv.transfer.chunks_sent")),
      chunks_applied(r.counter("kv.transfer.chunks_applied")),
      bytes_sent(r.counter("kv.transfer.bytes_sent")),
      bytes_applied(r.counter("kv.transfer.bytes_applied")),
      chunk_crc_rejects(r.counter("kv.transfer.chunk_crc_rejects")),
      claims(r.counter("kv.transfer.claims")),
      reads_catching_up(r.counter("kv.reads_catching_up")),
      stale_reads(r.counter("kv.stale_reads")),
      antientropy_rounds(r.counter("kv.antientropy_rounds")),
      antientropy_repairs(r.counter("kv.antientropy_repairs")),
      catch_up_us(r.histogram("kv.transfer.catch_up_us")) {}

// --- engine ----------------------------------------------------------------

TransferEngine::TransferEngine(ProcessId self, TransferConfig cfg)
    : self_(self), cfg_(cfg) {}

void TransferEngine::note_digest(ProcessId p, const StoreDigest& d,
                                 bool serving) {
  if (p == self_) return;
  Peer& peer = peers_[p];
  peer.serving = serving;
  peer.have_digest = true;
  peer.digest = d;
}

std::size_t TransferEngine::chunk_budget(Ctx ctx) const {
  // Soft ceiling: the smaller of the configured chunk size and the ring's
  // payload limit less framing margin. A single oversized entry still goes
  // alone (the agent caps put() sizes so it always fits the hard limit).
  const std::size_t hard = ctx.node.options().max_payload_bytes;
  std::size_t budget = std::min(cfg_.max_chunk_bytes, hard - hard / 8);
  return std::max<std::size_t>(budget, 512);
}

void TransferEngine::on_regular_config(const Configuration& config, Ctx ctx) {
  members_ = config.members;
  // Beliefs are per-configuration: a peer that was serving before the
  // change may be gone or stale now, and a stale "serving + equal" belief
  // must never clear catching_up. Everyone re-introduces themselves below.
  peers_.clear();
  claim_resolved_ = false;
  donor_resends_.clear();
  repair_ = Repair{};
  ann_.awaiting_self = false;
  ann_.modified_buckets.clear();
  ann_.spurious.clear();
  ann_.spurious_round = 0;
  ann_.next_at = ctx.now + cfg_.antientropy_interval_us;

  // Any in-flight attempt's chunk stream is void across a configuration
  // change (the donor may be gone; the anchor position is meaningless in
  // the new ring): abort, do not wedge. A fresh attempt starts right below
  // if we are still (or newly) in primary.
  const bool had_attempt = join_.attempt_open;
  join_.attempt_open = false;
  join_.anchored = false;
  join_.modified.clear();
  join_.stream = Stream{};
  join_.retries = 0;
  join_.backoff_level = 0;
  join_.next_attempt_at = 0;
  if (had_attempt) ctx.met.aborted.inc();

  std::size_t present = 0;
  for (const ProcessId p : ctx.assigned) {
    if (config.contains(p)) ++present;
  }
  in_primary_ = !ctx.assigned.empty() && present * 2 > ctx.assigned.size();

  if (!in_primary_) {
    was_out_ = true;
    return;
  }
  if (was_out_) {
    // First config back in primary after being out: this replica may have
    // missed writes ordered while it was away — gate reads until a digest
    // proves otherwise or a donor ships the delta.
    was_out_ = false;
    if (!catching_up_) {
      start_catching_up(ctx);
      return;
    }
    start_attempt(ctx);
    return;
  }
  if (catching_up_) {
    // Reconfigured mid-catch-up while staying in primary: restart.
    start_attempt(ctx);
    return;
  }
  // Serving through the change: announce immediately, INSIDE the install
  // callback, so the announce precedes any post-install submission in the
  // new ring's order — joiners see a serving donor before the first write.
  announce(ctx);
}

void TransferEngine::start_catching_up(Ctx ctx) {
  catching_up_ = true;
  join_ = Join{};
  join_.started_at = ctx.now;
  start_attempt(ctx);
}

void TransferEngine::start_attempt(Ctx ctx) {
  join_.session = ++session_counter_;
  join_.anchored = false;
  join_.modified.clear();
  join_.stream = Stream{};
  TransferRequestMsg m{self_, join_.session, digest_of(ctx.store)};
  std::vector<std::vector<std::uint8_t>> batch;
  batch.push_back(encode_request(m, TransferOp::TransferRequest));
  auto sent = ctx.node.send_batch(Service::Safe, std::move(batch));
  if (!sent.ok()) {
    // Ring backpressure; the next tick retries cheaply.
    join_.attempt_open = false;
    join_.next_attempt_at = ctx.now + cfg_.tick_interval_us;
    return;
  }
  join_.attempt_open = true;
  join_.deadline = ctx.now + cfg_.request_timeout_us;
  ctx.met.sessions.inc();
}

void TransferEngine::abort_attempt(bool backoff, Ctx ctx) {
  join_.attempt_open = false;
  join_.anchored = false;
  join_.modified.clear();
  join_.stream = Stream{};
  ctx.met.aborted.inc();
  if (!backoff) {
    join_.next_attempt_at = ctx.now;
    return;
  }
  ++join_.retries;
  ctx.met.retries.inc();
  SimTime delay = cfg_.request_timeout_us;
  for (std::uint32_t i = 0; i < join_.backoff_level && delay < cfg_.backoff_cap_us;
       ++i) {
    delay *= 2;
  }
  delay = std::min(delay, cfg_.backoff_cap_us);
  if (join_.backoff_level < 16) ++join_.backoff_level;
  join_.next_attempt_at = ctx.now + delay;
}

void TransferEngine::complete_catch_up(Ctx ctx) {
  catching_up_ = false;
  ctx.met.completed.inc();
  ctx.met.catch_up_us.record(ctx.now - join_.started_at);
  join_ = Join{};
}

void TransferEngine::rules_check(Ctx ctx) {
  if (!catching_up_ || !in_primary_) return;
  const StoreDigest mine = digest_of(ctx.store);
  // Rule A: a serving peer provably holds exactly my content — nothing to
  // transfer, open the gate.
  for (const auto& [p, peer] : peers_) {
    if (peer.serving && peer.have_digest && contains(members_, p) &&
        same_content(peer.digest, mine)) {
      complete_catch_up(ctx);
      return;
    }
  }
  // Rule B (birth / full-group restart with equal stores): every assigned
  // replica in the configuration has introduced itself, nobody serves, and
  // all contents are equal — there is no donor to wait for and no delta to
  // ship, so everyone opens deterministically.
  for (const ProcessId p : ctx.assigned) {
    if (p == self_ || !contains(members_, p)) continue;
    const auto it = peers_.find(p);
    if (it == peers_.end() || !it->second.have_digest) return;
    if (it->second.serving) return;
    if (!same_content(it->second.digest, mine)) return;
  }
  complete_catch_up(ctx);
}

bool TransferEngine::should_claim(Ctx ctx) const {
  // ServeClaim: last resort for the nobody-can-serve wedge (e.g. a majority
  // crash wiped stores mid-flight, so every replica is catching up and no
  // two are content-equal). Claim only with full knowledge and only from
  // the best-progressed replica, so committed writes held by ANY surviving
  // replica are never abandoned for an emptier store.
  if (claim_resolved_ || join_.retries < 1) return false;
  const std::uint64_t mine_applied = ctx.store.stats().applied;
  for (const auto& [p, peer] : peers_) {
    if (peer.serving && contains(members_, p)) return false;
  }
  for (const ProcessId p : ctx.assigned) {
    if (p == self_ || !contains(members_, p)) continue;
    const auto it = peers_.find(p);
    if (it == peers_.end() || !it->second.have_digest) return false;
    if (it->second.digest.applied > mine_applied) return false;
    if (it->second.digest.applied == mine_applied && p < self_) return false;
  }
  return true;
}

bool TransferEngine::is_donor(Ctx ctx) const {
  (void)ctx;
  if (!serving()) return false;
  // Deterministic-enough election: the lowest-id replica BELIEVED serving
  // donates. Beliefs come from delivered messages, so replicas that share a
  // delivery prefix agree; at worst two serving replicas both respond and
  // the joiner ignores the rival stream (reconcile is idempotent anyway).
  for (const auto& [p, peer] : peers_) {
    if (peer.serving && p < self_ && contains(members_, p)) return false;
  }
  return true;
}

void TransferEngine::announce(Ctx ctx) {
  DigestAnnounceMsg m{self_, ann_round_ + 1, digest_of(ctx.store)};
  std::vector<std::vector<std::uint8_t>> batch;
  batch.push_back(encode_announce(m));
  auto sent = ctx.node.send_batch(Service::Safe, std::move(batch));
  if (!sent.ok()) return;  // skip the round; the next tick re-evaluates
  ann_round_ = m.round;
  ann_.round = m.round;
  ann_.awaiting_self = true;
  ann_.modified_buckets.clear();
  ctx.met.antientropy_rounds.inc();
}

void TransferEngine::respond_to_request(const TransferRequestMsg& m, Ctx ctx) {
  send_chunks(m.sender, m.session, /*repair=*/false,
              diff_buckets(digest_of(ctx.store), m.digest), ctx);
}

void TransferEngine::send_chunks(ProcessId joiner, std::uint64_t session,
                                 bool repair,
                                 const std::vector<std::uint32_t>& buckets,
                                 Ctx ctx) {
  // Collect the requested buckets' entries in one store pass. Buckets with
  // no local entries still ship (empty): the receiver must erase extras.
  std::map<std::uint32_t, std::vector<ChunkEntry>> per_bucket;
  for (const std::uint32_t b : buckets) per_bucket[b];
  if (!per_bucket.empty()) {
    for (const auto& [k, v] : ctx.store.contents()) {
      const auto it = per_bucket.find(bucket_of(k));
      if (it != per_bucket.end()) it->second.push_back(ChunkEntry{k, v});
    }
  }

  // Pack complete buckets greedily up to the byte budget; a bucket that
  // cannot fit is split into consecutive parts (complete flag on the last).
  const std::size_t budget = chunk_budget(ctx);
  std::vector<TransferChunkMsg> chunks;
  TransferChunkMsg cur;
  std::size_t cur_bytes = kChunkHeaderBytes + kChunkCrcBytes;
  const auto fresh = [&] {
    TransferChunkMsg c;
    c.donor = self_;
    c.joiner = joiner;
    c.session = session;
    c.flags = repair ? kChunkFlagRepair : 0;
    return c;
  };
  cur = fresh();
  const auto flush = [&] {
    chunks.push_back(std::move(cur));
    cur = fresh();
    cur_bytes = kChunkHeaderBytes + kChunkCrcBytes;
  };
  for (auto& [bucket, entries] : per_bucket) {
    if (!cur.buckets.empty() && cur_bytes + kBucketHeaderBytes >= budget) {
      flush();
    }
    ChunkBucket cb;
    cb.bucket = bucket;
    cur_bytes += kBucketHeaderBytes;
    for (ChunkEntry& e : entries) {
      const std::size_t esz = entry_bytes(e);
      if (cur_bytes + esz > budget &&
          (!cb.entries.empty() || !cur.buckets.empty())) {
        if (!cb.entries.empty()) {
          cb.complete = false;  // more parts of this bucket follow
          cur.buckets.push_back(std::move(cb));
          cb = ChunkBucket{};
          cb.bucket = bucket;
        }
        flush();
        cur_bytes += kBucketHeaderBytes;
      }
      cur_bytes += esz;
      cb.entries.push_back(std::move(e));
    }
    cb.complete = true;
    cur.buckets.push_back(std::move(cb));
  }
  if (!cur.buckets.empty() || chunks.empty()) flush();
  // chunks.empty() above covers the nothing-to-transfer case: one empty
  // chunk is the completion signal the joiner needs to open its gate.

  std::vector<std::vector<std::uint8_t>> encoded;
  encoded.reserve(chunks.size());
  std::size_t bytes = 0;
  for (std::uint32_t i = 0; i < chunks.size(); ++i) {
    chunks[i].index = i;
    chunks[i].count = static_cast<std::uint32_t>(chunks.size());
    encoded.push_back(encode_chunk(chunks[i]));
    bytes += encoded.back().size();
  }

  auto attempt = encoded;  // keep the originals for backpressure resend
  auto sent = ctx.node.send_batch(Service::Safe, std::move(attempt));
  if (sent.ok()) {
    ctx.met.chunks_sent.inc(encoded.size());
    ctx.met.bytes_sent.inc(bytes);
    return;
  }
  DonorResend d;
  d.joiner = joiner;
  d.session = session;
  d.chunks = std::move(encoded);
  d.retry_at = ctx.now + cfg_.tick_interval_us;
  d.attempts = 1;
  donor_resends_.push_back(std::move(d));
}

std::size_t TransferEngine::reconcile_buckets(
    const std::map<std::uint32_t, std::vector<ChunkEntry>>& buckets,
    const std::set<std::string, std::less<>>& skip, Ctx ctx) {
  if (buckets.empty()) return 0;
  std::set<std::string_view> incoming;
  for (const auto& [bucket, entries] : buckets) {
    for (const ChunkEntry& e : entries) incoming.insert(e.key);
  }
  // One store pass finds every local key of these buckets the donor does
  // not have — except keys this replica applied since the anchor (both
  // sides hold the post-write value for those; the donor's snapshot merely
  // predates it).
  std::vector<std::string> extras;
  for (const auto& [k, v] : ctx.store.contents()) {
    if (buckets.count(bucket_of(k)) == 0) continue;
    if (incoming.count(k) != 0 || skip.count(k) != 0) continue;
    extras.push_back(k);
  }
  std::set<std::uint32_t> changed;
  for (const std::string& k : extras) {
    if (ctx.store.erase_key(k)) changed.insert(bucket_of(k));
  }
  for (const auto& [bucket, entries] : buckets) {
    for (const ChunkEntry& e : entries) {
      if (skip.count(e.key) != 0) continue;
      if (ctx.store.upsert(e.key, e.value)) changed.insert(bucket);
    }
  }
  return changed.size();
}

TransferEngine::ChunkVerdict TransferEngine::accept_chunk(
    Stream& s, const std::set<std::string, std::less<>>& skip,
    const TransferChunkMsg& m, bool count_repairs, Ctx ctx) {
  if (!s.donor_locked) {
    if (m.index != 0) return ChunkVerdict::ignored;  // rival mid-stream
    s.donor_locked = true;
    s.donor = m.donor;
    s.count = m.count;
    s.next_index = 0;
  } else if (m.donor != s.donor) {
    return ChunkVerdict::ignored;  // a second donor also answered; one wins
  }
  if (m.index != s.next_index || m.count != s.count) {
    return ChunkVerdict::violation;  // torn stream
  }
  ++s.next_index;
  // Gather the buckets this chunk completes (a multi-part bucket completes
  // in the chunk carrying its last part), then reconcile them together.
  std::map<std::uint32_t, std::vector<ChunkEntry>> complete;
  for (const ChunkBucket& b : m.buckets) {
    if (s.partial_bucket.has_value()) {
      if (b.bucket != *s.partial_bucket) return ChunkVerdict::violation;
      s.partial_entries.insert(s.partial_entries.end(), b.entries.begin(),
                               b.entries.end());
      if (b.complete) {
        complete[b.bucket] = std::move(s.partial_entries);
        s.partial_bucket.reset();
        s.partial_entries.clear();
      }
    } else if (b.complete) {
      complete[b.bucket] = b.entries;
    } else {
      s.partial_bucket = b.bucket;
      s.partial_entries = b.entries;
    }
  }
  const std::size_t changed = reconcile_buckets(complete, skip, ctx);
  if (count_repairs && changed > 0) ctx.met.antientropy_repairs.inc(changed);
  if (s.next_index == s.count) {
    if (s.partial_bucket.has_value()) return ChunkVerdict::violation;
    return ChunkVerdict::completed;
  }
  return ChunkVerdict::progressed;
}

void TransferEngine::handle_announce(const DigestAnnounceMsg& m, Ctx ctx) {
  note_digest(m.sender, m.digest, /*serving=*/true);
  if (m.sender == self_) {
    if (ann_.awaiting_self && m.round == ann_.round) {
      // The spurious window closes: buckets we modified between queueing
      // the announce and this delivery are exactly the buckets receivers
      // will flag without being divergent (they compare their CURRENT store
      // against our PRE-QUEUE digest, and they applied those same writes).
      ann_.awaiting_self = false;
      ann_.spurious = std::move(ann_.modified_buckets);
      ann_.modified_buckets.clear();
      ann_.spurious_round = m.round;
    }
    return;
  }
  if (catching_up_) {
    rules_check(ctx);
    return;
  }
  if (!serving() || cfg_.antientropy_interval_us == 0) return;
  if (repair_.active) return;  // one repair session at a time
  const auto diffs = diff_buckets(digest_of(ctx.store), m.digest);
  if (diffs.empty()) return;
  RepairRequestMsg r{self_, m.sender, ++session_counter_, m.round, diffs};
  std::vector<std::vector<std::uint8_t>> batch;
  batch.push_back(encode_repair_request(r));
  auto sent = ctx.node.send_batch(Service::Safe, std::move(batch));
  if (!sent.ok()) return;  // next announce round retries
  repair_ = Repair{};
  repair_.active = true;
  repair_.session = r.session;
  repair_.authority = m.sender;
  repair_.deadline = ctx.now + cfg_.repair_timeout_us;
}

void TransferEngine::handle_request(const TransferRequestMsg& m, Ctx ctx) {
  note_digest(m.sender, m.digest, /*serving=*/false);
  if (m.sender == self_) {
    if (catching_up_ && join_.attempt_open && m.session == join_.session) {
      // Anchor: from this total-order position on, any key this replica
      // applies is recorded and skipped during reconcile. The donor builds
      // its chunks at this SAME position (the same message's delivery), so
      // the skip-set covers exactly the writes its snapshot cannot know.
      join_.anchored = true;
      join_.modified.clear();
    }
    rules_check(ctx);
    return;
  }
  rules_check(ctx);
  if (is_donor(ctx)) respond_to_request(m, ctx);
}

void TransferEngine::handle_claim(const TransferRequestMsg& m, Ctx ctx) {
  note_digest(m.sender, m.digest, /*serving=*/false);
  if (claim_resolved_) return;  // first claim after the config change wins
  claim_resolved_ = true;
  if (m.sender == self_) {
    if (catching_up_) complete_catch_up(ctx);
    return;
  }
  if (peers_.count(m.sender) != 0) peers_[m.sender].serving = true;
  if (catching_up_) {
    // A donor exists now; restart the attempt against it promptly (rule A
    // may even clear without chunks if the winner's content equals ours).
    rules_check(ctx);
    if (catching_up_) {
      if (join_.attempt_open) {
        abort_attempt(/*backoff=*/false, ctx);
      } else {
        join_.next_attempt_at = ctx.now;
      }
    }
  }
}

void TransferEngine::handle_chunk(const TransferChunkMsg& m,
                                  std::size_t payload_bytes, Ctx ctx) {
  // Everyone on the ring sees the chunk: its donor is necessarily serving.
  if (m.donor != self_ && peers_.count(m.donor) != 0) {
    peers_[m.donor].serving = true;
  }
  if (m.joiner != self_) return;
  if ((m.flags & kChunkFlagRepair) != 0) {
    if (!repair_.active || m.session != repair_.session || !repair_.anchored) {
      return;
    }
    const ChunkVerdict v =
        accept_chunk(repair_.stream, repair_.modified, m, true, ctx);
    if (v == ChunkVerdict::ignored) return;
    if (v == ChunkVerdict::violation) {
      repair_ = Repair{};  // abandon; the next announce round re-detects
      return;
    }
    ctx.met.chunks_applied.inc();
    ctx.met.bytes_applied.inc(payload_bytes);
    if (v == ChunkVerdict::completed) repair_ = Repair{};
    return;
  }
  if (!catching_up_ || !join_.attempt_open || m.session != join_.session ||
      !join_.anchored) {
    return;  // stale session (aborted attempt, config change, duplicate)
  }
  const ChunkVerdict v =
      accept_chunk(join_.stream, join_.modified, m, false, ctx);
  if (v == ChunkVerdict::ignored) return;
  if (v == ChunkVerdict::violation) {
    abort_attempt(/*backoff=*/true, ctx);
    return;
  }
  ctx.met.chunks_applied.inc();
  ctx.met.bytes_applied.inc(payload_bytes);
  if (v == ChunkVerdict::completed) {
    complete_catch_up(ctx);
  } else {
    // Forward progress: push the deadline out so a long multi-chunk
    // transfer on a slow ring is not falsely aborted mid-stream.
    join_.deadline = ctx.now + cfg_.request_timeout_us;
  }
}

void TransferEngine::handle_repair_request(const RepairRequestMsg& m,
                                           Ctx ctx) {
  if (m.requester == self_) {
    if (repair_.active && m.session == repair_.session) {
      repair_.anchored = true;  // same anchor position the authority builds at
      repair_.modified.clear();
    }
    return;
  }
  // Only serving replicas run repairs; remember that about the requester.
  if (peers_.count(m.requester) != 0) peers_[m.requester].serving = true;
  if (m.authority != self_ || !serving()) return;
  if (m.round != ann_.spurious_round) return;  // stale announce round
  std::vector<std::uint32_t> buckets;
  for (const std::uint32_t b : m.buckets) {
    if (ann_.spurious.count(b) == 0) buckets.push_back(b);
  }
  // All-spurious requests still get the empty completion chunk so the
  // requester closes its session instead of waiting out the deadline.
  send_chunks(m.requester, m.session, /*repair=*/true, buckets, ctx);
}

bool TransferEngine::handle_payload(std::span<const std::uint8_t> payload,
                                    Ctx ctx) {
  if (payload.empty() || payload[0] < kTransferOpFirst ||
      payload[0] > kTransferOpLast) {
    return false;
  }
  switch (static_cast<TransferOp>(payload[0])) {
    case TransferOp::DigestAnnounce: {
      const auto m = decode_announce(payload);
      if (!m.has_value()) return false;
      handle_announce(*m, ctx);
      return true;
    }
    case TransferOp::TransferRequest: {
      const auto m = decode_request(payload);
      if (!m.has_value()) return false;
      handle_request(*m, ctx);
      return true;
    }
    case TransferOp::ServeClaim: {
      const auto m = decode_request(payload);
      if (!m.has_value()) return false;
      handle_claim(*m, ctx);
      return true;
    }
    case TransferOp::TransferChunk: {
      if (!chunk_crc_ok(payload)) {
        // A counted transfer event, not a decode reject: transfers recover
        // via the stream deadline, and the metric is the tripwire.
        ctx.met.chunk_crc_rejects.inc();
        return true;
      }
      const auto m = decode_chunk(payload);
      if (!m.has_value()) return false;
      handle_chunk(*m, payload.size(), ctx);
      return true;
    }
    case TransferOp::RepairRequest: {
      const auto m = decode_repair_request(payload);
      if (!m.has_value()) return false;
      handle_repair_request(*m, ctx);
      return true;
    }
  }
  return false;
}

void TransferEngine::on_kv_applied(std::string_view key) {
  if (catching_up_ && join_.anchored) join_.modified.insert(std::string(key));
  if (repair_.active && repair_.anchored) {
    repair_.modified.insert(std::string(key));
  }
  if (ann_.awaiting_self) {
    ann_.modified_buckets.insert(bucket_of(key));
  }
}

void TransferEngine::tick(Ctx ctx) {
  if (!ctx.node.running()) return;
  if (in_primary_ && catching_up_) {
    if (join_.attempt_open && ctx.now >= join_.deadline) {
      abort_attempt(/*backoff=*/true, ctx);
    }
    if (!join_.attempt_open && ctx.now >= join_.next_attempt_at) {
      if (should_claim(ctx)) {
        TransferRequestMsg m{self_, ++session_counter_, digest_of(ctx.store)};
        std::vector<std::vector<std::uint8_t>> batch;
        batch.push_back(encode_request(m, TransferOp::ServeClaim));
        auto sent = ctx.node.send_batch(Service::Safe, std::move(batch));
        if (sent.ok()) {
          ctx.met.claims.inc();
          // If the claim loses (or is lost), fall back to requesting.
          join_.next_attempt_at = ctx.now + cfg_.request_timeout_us;
        }
      } else {
        start_attempt(ctx);
      }
    }
  }
  for (auto it = donor_resends_.begin(); it != donor_resends_.end();) {
    if (ctx.now < it->retry_at) {
      ++it;
      continue;
    }
    auto attempt = it->chunks;
    auto sent = ctx.node.send_batch(Service::Safe, std::move(attempt));
    if (sent.ok()) {
      std::size_t bytes = 0;
      for (const auto& c : it->chunks) bytes += c.size();
      ctx.met.chunks_sent.inc(it->chunks.size());
      ctx.met.bytes_sent.inc(bytes);
      it = donor_resends_.erase(it);
      continue;
    }
    ++it->attempts;
    if (it->attempts > cfg_.donor_max_attempts) {
      // Give up; the joiner's own deadline/retry restarts the session.
      it = donor_resends_.erase(it);
      continue;
    }
    it->retry_at = ctx.now + cfg_.tick_interval_us;
    ++it;
  }
  if (serving() && cfg_.antientropy_interval_us > 0 && ctx.now >= ann_.next_at) {
    ann_.next_at = ctx.now + cfg_.antientropy_interval_us;
    // Single authority per round: the lowest-id believed-serving replica.
    if (is_donor(ctx)) announce(ctx);
  }
  if (repair_.active && ctx.now >= repair_.deadline) {
    repair_ = Repair{};  // authority gone or stream stalled; re-detect later
  }
}

void TransferEngine::reset_for_crash() {
  // Volatile state only; session/round counters stay monotone so payloads
  // from a previous incarnation can never alias a fresh session.
  members_.clear();
  in_primary_ = false;
  was_out_ = true;
  catching_up_ = false;
  claim_resolved_ = false;
  peers_.clear();
  join_ = Join{};
  donor_resends_.clear();
  ann_ = Announce{};
  repair_ = Repair{};
}

}  // namespace evs::shard
