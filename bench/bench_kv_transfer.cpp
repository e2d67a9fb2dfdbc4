// State-transfer catch-up cost (DESIGN.md "State transfer & anti-entropy").
//
// A replica of a preloaded shard is isolated, the majority commits a delta
// of fresh writes, the partition heals, and the benchmark measures the
// virtual time from heal to the rejoiner re-opening its read gate plus the
// bytes the donor shipped to get it there:
//
//   BM_KvCatchUp/<delta_ops>
//
// The headline property is that transfer cost scales with the DELTA, not
// the store: the digest exchange narrows the stream to the buckets that
// actually changed, so catching up 128 missed writes over a 4096-key store
// must ship well under half the store's bytes. The run aborts
// (SkipWithError) if that bound fails — a regression to ship-everything is
// a correctness-of-purpose bug for this subsystem, not a slow day. Catch-up
// latency, shipped bytes and store size ride along as bench.* counters next
// to the kv.transfer.* instruments in BENCH_kv_transfer.json.
//
//   BM_DigestRound/<keys>
//
// The wall-clock cost of one anti-entropy round's digest work over a store
// of <keys> 64-byte entries: the authority takes its digest and encodes the
// announce; a serving peer decodes it, takes its own digest and diffs the
// two. Both digests come from the sums the store maintains per mutation, so
// the round costs O(buckets) whatever the store size. The same round built
// on compute_digest (a walk of every entry, O(store)) is timed alongside as
// the reference. Per-round nanoseconds land in the bench.digest_round_ns and
// bench.reference_round_ns histograms (count = rounds timed).
#include <benchmark/benchmark.h>

#include <chrono>
#include <map>
#include <string>
#include <vector>

#include "bench_report.hpp"
#include "shard/digest.hpp"
#include "shard/kv_store.hpp"
#include "shard/transfer.hpp"
#include "testkit/kv_cluster.hpp"

namespace {

using namespace evs;

constexpr int kPreloadOps = 4096;
constexpr std::size_t kValueBytes = 64;

/// Write one key through the shard's current writer, waiting out transient
/// backpressure; false only when the ring never admits it.
bool paced_put(KvCluster& kc, const std::string& key,
               const std::string& value) {
  for (int attempt = 0; attempt < 400; ++attempt) {
    apps::KvShardedNode* w = kc.writer(0);
    if (w == nullptr) {
      kc.run_for(2'000);
      continue;
    }
    const Status st = w->put(key, value);
    if (st.ok()) return true;
    kc.run_for(2'000);
  }
  return false;
}

void BM_KvCatchUp(benchmark::State& state) {
  const int delta_ops = static_cast<int>(state.range(0));

  double catch_up_us = 0;
  double shipped = 0;
  std::uint64_t rounds = 0;
  for (auto _ : state) {
    KvCluster::Options opts;
    opts.num_processes = 4;
    opts.router.num_shards = 1;
    opts.router.replication = 3;
    opts.seed = 9000 + rounds;
    KvCluster kc(opts);
    if (!kc.await_quiesce(20'000'000)) {
      state.SkipWithError("shard ring never quiesced");
      return;
    }

    // Preload: a store much larger than any delta in the sweep.
    std::size_t store_bytes = 0;
    for (int i = 0; i < kPreloadOps; ++i) {
      const std::string key = "base-" + std::to_string(i);
      if (!paced_put(kc, key, std::string(kValueBytes, 'b'))) {
        state.SkipWithError("preload write never admitted");
        return;
      }
      store_bytes += key.size() + kValueBytes;
      if (i % 64 == 63) kc.run_for(10'000);
    }
    if (!kc.await_quiesce(60'000'000)) {
      state.SkipWithError("preload never drained");
      return;
    }

    // Isolate the LAST replica so the writer (the first) keeps accepting,
    // commit the delta on the majority side, then heal.
    const std::size_t lone = kc.router().replicas(0).back().value - 1;
    std::vector<std::size_t> rest;
    for (std::size_t p = 0; p < kc.size(); ++p) {
      if (p != lone) rest.push_back(p);
    }
    kc.partition_shard(0, {{lone}, rest});
    if (!kc.await([&] { return kc.shard_cluster(0).stable(); }, 20'000'000)) {
      state.SkipWithError("majority never re-stabilized");
      return;
    }
    for (int i = 0; i < delta_ops; ++i) {
      if (!paced_put(kc, "delta-" + std::to_string(i),
                     std::string(kValueBytes, 'd'))) {
        state.SkipWithError("delta write never admitted");
        return;
      }
      if (i % 64 == 63) kc.run_for(10'000);
    }

    const std::uint64_t bytes_before =
        kc.aggregate_metrics().counter_value("kv.transfer.bytes_sent");
    const SimTime heal_at = kc.now();
    kc.heal_shard(0);
    // The measured span: heal to the rejoiner serving reads again with the
    // full delta applied (fine 500us steps, so the makespan is the
    // transfer's, not the polling grid's).
    const std::string last_key = "delta-" + std::to_string(delta_ops - 1);
    const bool caught_up = kc.await(
        [&] {
          if (!kc.agent(lone).serving(0)) return false;
          auto got = kc.agent(lone).get(last_key);
          return got.ok() && got->has_value();
        },
        60'000'000);
    if (!caught_up) {
      state.SkipWithError("rejoiner never caught up");
      return;
    }
    const double elapsed = static_cast<double>(kc.now() - heal_at);
    const std::uint64_t bytes_sent =
        kc.aggregate_metrics().counter_value("kv.transfer.bytes_sent") -
        bytes_before;

    if (!kc.await_quiesce(60'000'000)) {
      state.SkipWithError("post-transfer quiesce failed");
      return;
    }
    if (!kc.replicas_agree(0)) {
      state.SkipWithError("replicas diverged after catch-up");
      return;
    }
    if (!kc.check_report().empty()) {
      state.SkipWithError("spec violation in the shard trace");
      return;
    }
    // The scaling gate: a SMALL delta over a big store must not ship the
    // store. Transfer granularity is the digest bucket, so each missed
    // write drags its bucket's resident entries along (~store/buckets
    // extra per touched bucket); once the delta touches most buckets —
    // 2048/4096 covers ~85% of them — shipping near the store is the
    // honest cost, not a regression, so the gate applies only while the
    // delta is a small fraction of the store. Half is a generous ceiling:
    // a digest-driven 128/4096 transfer sits far below it, while a
    // ship-everything regression always trips it.
    if (delta_ops <= kPreloadOps / 16 && bytes_sent >= store_bytes / 2) {
      state.SkipWithError("transfer bytes did not scale with the delta");
      return;
    }

    catch_up_us += elapsed;
    shipped += static_cast<double>(bytes_sent);
    const std::string run =
        evs::bench::run_name("BM_KvCatchUp", {state.range(0)});
    evs::bench::record(run, kc);
    auto& reg = evs::bench::ObsReport::instance().run(run);
    reg.counter("bench.delta_ops").inc(static_cast<std::uint64_t>(delta_ops));
    reg.counter("bench.catch_up_us").inc(static_cast<std::uint64_t>(elapsed));
    reg.counter("bench.transfer_bytes").inc(bytes_sent);
    reg.counter("bench.store_bytes")
        .inc(static_cast<std::uint64_t>(store_bytes));
    ++rounds;
  }
  state.counters["catch_up_sim_ms"] =
      catch_up_us / 1e3 / static_cast<double>(rounds);
  state.counters["transfer_bytes"] = shipped / static_cast<double>(rounds);
  state.counters["bytes_per_delta_op"] =
      shipped / static_cast<double>(rounds) / static_cast<double>(state.range(0));
}

shard::KvStore preloaded_store(int keys) {
  shard::KvStore s;
  for (int i = 0; i < keys; ++i) {
    s.upsert("key-" + std::to_string(i), std::string(kValueBytes, 'v'));
  }
  return s;
}

/// One anti-entropy round's digest work with `digest` as the digest source;
/// returns how many buckets the peer would ask to have repaired.
template <typename DigestFn>
std::size_t digest_round(const shard::KvStore& authority,
                         const shard::KvStore& peer, DigestFn digest) {
  const shard::DigestAnnounceMsg m{ProcessId{1}, 1, digest(authority)};
  const auto wire = shard::encode_announce(m);
  const auto got = shard::decode_announce(wire);
  if (!got.has_value()) return 0;
  return shard::diff_buckets(digest(peer), got->digest).size();
}

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point since) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

void BM_DigestRound(benchmark::State& state) {
  constexpr int kReferenceRounds = 16;
  const int keys = static_cast<int>(state.range(0));
  const shard::KvStore authority = preloaded_store(keys);
  shard::KvStore peer = preloaded_store(keys);
  peer.upsert("key-0", "silently diverged");  // exactly one bucket differs

  auto& reg = evs::bench::ObsReport::instance().run(
      evs::bench::run_name("BM_DigestRound", {state.range(0)}));
  auto& kept_ns = reg.histogram("bench.digest_round_ns");
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    const std::size_t diffs = digest_round(authority, peer, shard::digest_of);
    kept_ns.record(elapsed_ns(t0));
    benchmark::DoNotOptimize(diffs);
    if (diffs != 1) {
      state.SkipWithError("maintained digests missed the diverged bucket");
      return;
    }
  }
  auto& reference_ns = reg.histogram("bench.reference_round_ns");
  for (int i = 0; i < kReferenceRounds; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    const std::size_t diffs =
        digest_round(authority, peer, shard::compute_digest);
    reference_ns.record(elapsed_ns(t0));
    if (diffs != 1) {
      state.SkipWithError("reference digests missed the diverged bucket");
      return;
    }
  }
  const shard::DigestAnnounceMsg m{ProcessId{1}, 1,
                                   shard::digest_of(authority)};
  reg.gauge("bench.keys").set(keys);
  reg.gauge("bench.announce_bytes")
      .set(static_cast<std::int64_t>(shard::encode_announce(m).size()));
  state.counters["round_us"] = static_cast<double>(kept_ns.sum()) / 1e3 /
                               static_cast<double>(kept_ns.count());
  state.counters["reference_round_us"] =
      static_cast<double>(reference_ns.sum()) / 1e3 /
      static_cast<double>(reference_ns.count());
}

}  // namespace

BENCHMARK(BM_KvCatchUp)
    ->Arg(128)
    ->Arg(512)
    ->Arg(2048)
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_DigestRound)
    ->Arg(1000)
    ->Arg(25000)
    ->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

EVS_BENCH_MAIN("bench_kv_transfer");
