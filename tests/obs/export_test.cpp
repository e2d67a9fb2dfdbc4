// JSON layer tests: writer/parser round-trips (including escaping and
// member ordering), the metrics/snapshot/report validators on both valid
// and malformed documents, and the real exporters feeding the validators.
#include "obs/export.hpp"

#include <gtest/gtest.h>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "testkit/cluster.hpp"
#include "testkit/report.hpp"

namespace evs::obs {
namespace {

TEST(JsonWriter, WritesNestedStructures) {
  JsonWriter w;
  w.begin_object();
  w.kv("a", std::uint64_t{1});
  w.key("b").begin_array();
  w.value(std::int64_t{-2});
  w.value("three");
  w.value(true);
  w.null();
  w.end_array();
  w.end_object();
  EXPECT_EQ(w.str(), R"({"a":1,"b":[-2,"three",true,null]})");
}

TEST(JsonWriter, EscapesControlAndQuoteCharacters) {
  JsonWriter w;
  w.begin_object();
  w.kv("k", "a\"b\\c\n\t\x01z");
  w.end_object();
  const std::string out = w.take();
  EXPECT_EQ(out, "{\"k\":\"a\\\"b\\\\c\\n\\t\\u0001z\"}");
  // And the parser undoes exactly that escaping.
  const auto v = JsonValue::parse(out);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->find("k")->string, "a\"b\\c\n\t\x01z");
}

TEST(JsonValue, RoundTripPreservesMemberOrder) {
  const auto v = JsonValue::parse(R"({"zebra":1,"alpha":2,"zebra":3})");
  ASSERT_TRUE(v.has_value());
  ASSERT_EQ(v->object.size(), 3u);
  EXPECT_EQ(v->object[0].first, "zebra");  // source order, not sorted
  EXPECT_EQ(v->object[1].first, "alpha");
  EXPECT_EQ(v->find("zebra")->number, 1);  // find() = first occurrence
}

TEST(JsonValue, RejectsMalformedDocuments) {
  EXPECT_FALSE(JsonValue::parse("").has_value());
  EXPECT_FALSE(JsonValue::parse("{").has_value());
  EXPECT_FALSE(JsonValue::parse("{}{}").has_value());  // trailing garbage
  EXPECT_FALSE(JsonValue::parse("{\"a\":}").has_value());
  EXPECT_FALSE(JsonValue::parse("[1,]").has_value());
  EXPECT_FALSE(JsonValue::parse("'single'").has_value());
}

MetricsRegistry sample_registry() {
  MetricsRegistry r;
  r.counter("evs.sent").inc(3);
  r.counter("evs.backpressure_rejections");
  r.counter("net.datagrams_packed").inc(2);
  r.counter("storage.writes").inc(5);
  r.counter("storage.bytes").inc(240);
  r.counter("storage.write_failures");
  r.counter("storage.torn_records");
  r.counter("storage.crc_failures");
  r.counter("storage.repairs");
  r.gauge("evs.pending_sends").set(2);
  r.gauge("ordering.store_bytes").set(48);
  r.gauge("ordering.store_msgs").set(3);
  r.histogram("evs.gather_us").record(1'500);
  r.histogram("evs.gather_us").record(40);
  r.histogram("evs.deliver_batch_size").record(8);
  return r;
}

TEST(MetricsJson, RoundTripsAndValidates) {
  const std::string doc = metrics_json(sample_registry());
  const auto v = JsonValue::parse(doc);
  ASSERT_TRUE(v.has_value());
  EXPECT_TRUE(validate_metrics_json(*v).ok());
  EXPECT_EQ(v->find("counters")->find("evs.sent")->number, 3);
  EXPECT_EQ(v->find("gauges")->find("evs.pending_sends")->number, 2);
  const JsonValue* h = v->find("histograms")->find("evs.gather_us");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->find("count")->number, 2);
  EXPECT_EQ(h->find("sum")->number, 1'540);
  EXPECT_EQ(h->find("min")->number, 40);
  EXPECT_EQ(h->find("max")->number, 1'500);
  // Buckets are sparse: exactly the two non-empty ones appear.
  EXPECT_EQ(h->find("buckets")->object.size(), 2u);
}

TEST(MetricsJson, ValidatorRejectsShapeErrors) {
  auto check = [](const char* doc) {
    const auto v = JsonValue::parse(doc);
    EXPECT_TRUE(v.has_value()) << doc;
    return validate_metrics_json(*v);
  };
  EXPECT_FALSE(check(R"({"gauges":{},"histograms":{}})").ok());  // no counters
  EXPECT_FALSE(check(R"({"counters":[],"gauges":{},"histograms":{}})").ok());
  EXPECT_FALSE(  // counter member must be a number
      check(R"({"counters":{"x":"1"},"gauges":{},"histograms":{}})").ok());
  EXPECT_FALSE(  // histogram missing a required field (no "sum")
      check(R"({"counters":{},"gauges":{},"histograms":{"h":{"count":1,"min":0,"max":0,"p50":0,"p99":0,"buckets":{}}}})")
          .ok());
  EXPECT_FALSE(  // histogram bucket values must be numbers
      check(R"({"counters":{},"gauges":{},"histograms":{"h":{"count":1,"sum":0,"min":0,"max":0,"p50":0,"p99":0,"buckets":{"3":[]}}}})")
          .ok());
  EXPECT_TRUE(check(R"({"counters":{},"gauges":{},"histograms":{}})").ok());
}

TEST(SnapshotJson, RealClusterSnapshotValidates) {
  Cluster cluster;
  ASSERT_TRUE(cluster.await_stable());
  cluster.node(0).send(Service::Agreed, {1}).value();
  ASSERT_TRUE(cluster.await_quiesce());
  const std::string doc = cluster.snapshot().to_json();
  EXPECT_TRUE(validate_document(doc).ok()) << validate_document(doc).message();

  const auto v = JsonValue::parse(doc);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->find("schema")->string, "evs.obs.snapshot");
  EXPECT_EQ(v->find("version")->number, 1);
  EXPECT_EQ(v->find("nodes")->array.size(), cluster.size());
  // The text report is the same snapshot, rendered for humans.
  const std::string text = cluster.snapshot().to_text();
  EXPECT_NE(text.find("delivered="), std::string::npos);
  EXPECT_NE(text.find("(no injector installed)"), std::string::npos);
}

TEST(SnapshotJson, ValidatorRejectsHeaderAndShapeErrors) {
  auto reject = [](const char* doc) {
    const auto v = JsonValue::parse(doc);
    ASSERT_TRUE(v.has_value()) << doc;
    EXPECT_FALSE(validate_snapshot_json(*v).ok()) << doc;
  };
  reject(R"({"version":1,"time_us":0,"nodes":[]})");  // missing schema
  reject(R"({"schema":"evs.obs.snapshot","version":2,"time_us":0,"nodes":[]})");
  reject(R"({"schema":"evs.obs.snapshot","version":1,"nodes":[]})");  // no time
  reject(R"({"schema":"evs.obs.snapshot","version":1,"time_us":0})");  // no nodes
  reject(  // node entry without a pid
      R"({"schema":"evs.obs.snapshot","version":1,"time_us":0,"nodes":[{"state":"Down"}]})");
}

TEST(ReportJson, BenchReportShapeValidates) {
  // The same document shape every bench_* binary emits via bench_report.hpp.
  JsonWriter w;
  w.begin_object();
  w.kv("schema", "evs.obs.report");
  w.kv("version", 1);
  w.kv("source", "bench_unit_test");
  w.key("runs").begin_array();
  w.begin_object();
  w.kv("name", "BM_Sample/4");
  w.key("metrics");
  write_metrics(w, sample_registry());
  w.end_object();
  w.end_array();
  w.end_object();
  EXPECT_TRUE(validate_document(w.str()).ok())
      << validate_document(w.str()).message();
}

// Erase the first member named `name` from an object-valued JsonValue.
void erase_member(JsonValue& obj, std::string_view name) {
  for (auto it = obj.object.begin(); it != obj.object.end(); ++it) {
    if (it->first == name) {
      obj.object.erase(it);
      return;
    }
  }
  FAIL() << "member not present: " << name;
}

JsonValue* find_mutable(JsonValue& obj, std::string_view name) {
  for (auto& [k, v] : obj.object) {
    if (k == name) return &v;
  }
  return nullptr;
}

TEST(SnapshotJson, AggregateMustCarryMemoryInstruments) {
  Cluster cluster;
  ASSERT_TRUE(cluster.await_stable());
  auto v = JsonValue::parse(cluster.snapshot().to_json());
  ASSERT_TRUE(v.has_value());
  ASSERT_TRUE(validate_snapshot_json(*v).ok());

  // Dropping any memory-bound instrument from the aggregate must fail
  // validation — that's the regression tripwire for the GC/backpressure
  // observability surface.
  for (const char* gauge :
       {"ordering.store_bytes", "ordering.store_msgs", "evs.pending_sends"}) {
    auto copy = *v;
    erase_member(*find_mutable(*find_mutable(copy, "aggregate"), "gauges"), gauge);
    const Status st = validate_snapshot_json(copy);
    EXPECT_FALSE(st.ok());
    EXPECT_NE(st.message().find(gauge), std::string::npos) << st.message();
  }
  auto copy = *v;
  erase_member(*find_mutable(*find_mutable(copy, "aggregate"), "counters"),
               "evs.backpressure_rejections");
  EXPECT_FALSE(validate_snapshot_json(copy).ok());
}

TEST(SnapshotJson, AggregateMustCarryStorageInstruments) {
  Cluster cluster;
  ASSERT_TRUE(cluster.await_stable());
  auto v = JsonValue::parse(cluster.snapshot().to_json());
  ASSERT_TRUE(v.has_value());
  ASSERT_TRUE(validate_snapshot_json(*v).ok());

  // Dropping any storage counter from the aggregate must fail validation —
  // the tripwire for the crash-consistency observability surface.
  for (const char* counter :
       {"storage.writes", "storage.bytes", "storage.write_failures",
        "storage.torn_records", "storage.crc_failures", "storage.repairs"}) {
    auto copy = *v;
    erase_member(*find_mutable(*find_mutable(copy, "aggregate"), "counters"),
                 counter);
    const Status st = validate_snapshot_json(copy);
    EXPECT_FALSE(st.ok());
    EXPECT_NE(st.message().find(counter), std::string::npos) << st.message();
  }
}

TEST(ReportJson, EvsRunsMustCarryMemoryInstruments) {
  JsonWriter w;
  w.begin_object();
  w.kv("schema", "evs.obs.report");
  w.kv("version", 1);
  w.kv("source", "bench_unit_test");
  w.key("runs").begin_array();
  w.begin_object();
  w.kv("name", "BM_Sample/4");
  w.key("metrics");
  write_metrics(w, sample_registry());
  w.end_object();
  w.end_array();
  w.end_object();
  auto v = JsonValue::parse(w.str());
  ASSERT_TRUE(v.has_value());
  ASSERT_TRUE(validate_report_json(*v).ok());

  // An EVS-driven run (has evs.sent) missing a memory gauge is rejected...
  auto broken = *v;
  JsonValue& metrics = *find_mutable(find_mutable(broken, "runs")->array[0], "metrics");
  erase_member(*find_mutable(metrics, "gauges"), "ordering.store_bytes");
  EXPECT_FALSE(validate_report_json(broken).ok());

  // ...but a run with no EVS counters at all (e.g. a pure codec bench) is
  // exempt from the memory-instrument requirement.
  auto codec_only = *v;
  JsonValue& m2 = *find_mutable(find_mutable(codec_only, "runs")->array[0], "metrics");
  find_mutable(m2, "counters")->object.clear();
  find_mutable(m2, "gauges")->object.clear();
  EXPECT_TRUE(validate_report_json(codec_only).ok());
}

TEST(ReportJson, EvsRunsMustCarryBatchingInstruments) {
  JsonWriter w;
  w.begin_object();
  w.kv("schema", "evs.obs.report");
  w.kv("version", 1);
  w.kv("source", "bench_unit_test");
  w.key("runs").begin_array();
  w.begin_object();
  w.kv("name", "BM_Sample/4");
  w.key("metrics");
  write_metrics(w, sample_registry());
  w.end_object();
  w.end_array();
  w.end_object();
  auto v = JsonValue::parse(w.str());
  ASSERT_TRUE(v.has_value());
  ASSERT_TRUE(validate_report_json(*v).ok());

  // An EVS-driven run stripped of either datagram-batching instrument
  // (packing counter, delivery-batch-size histogram) is rejected: they are
  // pre-created at node construction, so absence means the hot path lost
  // its instrumentation.
  {
    auto broken = *v;
    JsonValue& metrics =
        *find_mutable(find_mutable(broken, "runs")->array[0], "metrics");
    erase_member(*find_mutable(metrics, "counters"), "net.datagrams_packed");
    EXPECT_FALSE(validate_report_json(broken).ok());
  }
  auto broken = *v;
  JsonValue& metrics = *find_mutable(find_mutable(broken, "runs")->array[0], "metrics");
  erase_member(*find_mutable(metrics, "histograms"), "evs.deliver_batch_size");
  EXPECT_FALSE(validate_report_json(broken).ok());
}

TEST(ReportJson, KvRunsMustCarryShardInstruments) {
  // A sharded-KV run (marked by kv.puts) must carry the full kv.*/shard.*
  // surface — the tripwire for bench_kv_sharded's committed JSON.
  MetricsRegistry r = sample_registry();
  r.counter("kv.puts").inc(7);
  r.counter("kv.gets").inc(7);
  r.counter("kv.get_misses");
  r.counter("kv.applied").inc(21);
  r.counter("kv.rejected_not_replica");
  r.counter("kv.rejected_backpressure");
  r.counter("kv.reads_blocked");
  r.counter("kv.writes_blocked");
  r.counter("kv.rejected_decode");
  r.counter("kv.transfer.sessions").inc(1);
  r.counter("kv.transfer.completed").inc(1);
  r.counter("kv.transfer.aborted");
  r.counter("kv.transfer.retries");
  r.counter("kv.transfer.chunks_sent").inc(3);
  r.counter("kv.transfer.chunks_applied").inc(3);
  r.counter("kv.transfer.bytes_sent").inc(4096);
  r.counter("kv.transfer.bytes_applied").inc(4096);
  r.counter("kv.transfer.chunk_crc_rejects");
  r.counter("kv.transfer.claims");
  r.counter("kv.reads_catching_up");
  r.counter("kv.stale_reads");
  r.counter("kv.antientropy_rounds").inc(2);
  r.counter("kv.antientropy_repairs");
  r.gauge("shard.local_shards").set(4);
  r.histogram("kv.put_batch_size").record(1);
  r.histogram("kv.transfer.catch_up_us").record(1500);
  JsonWriter w;
  w.begin_object();
  w.kv("schema", "evs.obs.report");
  w.kv("version", 1);
  w.kv("source", "bench_unit_test");
  w.key("runs").begin_array();
  w.begin_object();
  w.kv("name", "BM_KvShardedWrite/4/5/0");
  w.key("metrics");
  write_metrics(w, r);
  w.end_object();
  w.end_array();
  w.end_object();
  auto v = JsonValue::parse(w.str());
  ASSERT_TRUE(v.has_value());
  ASSERT_TRUE(validate_report_json(*v).ok())
      << validate_report_json(*v).message();

  // Any missing kv counter fails validation — including the full
  // state-transfer / anti-entropy family...
  for (const char* counter :
       {"kv.gets", "kv.applied", "kv.rejected_not_replica",
        "kv.rejected_backpressure", "kv.reads_blocked", "kv.writes_blocked",
        "kv.rejected_decode", "kv.transfer.sessions", "kv.transfer.completed",
        "kv.transfer.aborted", "kv.transfer.retries",
        "kv.transfer.chunks_sent", "kv.transfer.chunks_applied",
        "kv.transfer.bytes_sent", "kv.transfer.bytes_applied",
        "kv.transfer.chunk_crc_rejects", "kv.transfer.claims",
        "kv.reads_catching_up", "kv.stale_reads", "kv.antientropy_rounds",
        "kv.antientropy_repairs"}) {
    auto broken = *v;
    JsonValue& metrics =
        *find_mutable(find_mutable(broken, "runs")->array[0], "metrics");
    erase_member(*find_mutable(metrics, "counters"), counter);
    const Status st = validate_report_json(broken);
    EXPECT_FALSE(st.ok()) << counter;
    EXPECT_NE(st.message().find(counter), std::string::npos) << st.message();
  }
  // ...as do the shard gauge and the batch-size histogram.
  auto no_gauge = *v;
  JsonValue& mg = *find_mutable(find_mutable(no_gauge, "runs")->array[0], "metrics");
  erase_member(*find_mutable(mg, "gauges"), "shard.local_shards");
  EXPECT_FALSE(validate_report_json(no_gauge).ok());
  for (const char* hist : {"kv.put_batch_size", "kv.transfer.catch_up_us"}) {
    auto no_hist = *v;
    JsonValue& mh =
        *find_mutable(find_mutable(no_hist, "runs")->array[0], "metrics");
    erase_member(*find_mutable(mh, "histograms"), hist);
    EXPECT_FALSE(validate_report_json(no_hist).ok()) << hist;
  }

  // A run with no kv.puts marker (plain EVS bench) is exempt.
  auto plain = *v;
  JsonValue& mp = *find_mutable(find_mutable(plain, "runs")->array[0], "metrics");
  erase_member(*find_mutable(mp, "counters"), "kv.puts");
  erase_member(*find_mutable(mp, "counters"), "kv.applied");
  EXPECT_TRUE(validate_report_json(plain).ok())
      << validate_report_json(plain).message();
}

TEST(ReportJson, ExecutorRunsMustCarryInstruments) {
  // An executor-driven run (marked by net.executor.polls) must carry the
  // full net.executor.* surface — the tripwire for bench_executor_scale's
  // committed JSON.
  MetricsRegistry r = sample_registry();
  r.counter("net.executor.polls").inc(100);
  r.counter("net.executor.wakeups").inc(12);
  r.gauge("net.executor.workers").set(2);
  r.gauge("net.executor.nodes_per_worker").set(3);
  r.histogram("net.executor.inbox_depth").record(0);
  r.histogram("net.executor.poll_batch").record(4);
  JsonWriter w;
  w.begin_object();
  w.kv("schema", "evs.obs.report");
  w.kv("version", 1);
  w.kv("source", "bench_unit_test");
  w.key("runs").begin_array();
  w.begin_object();
  w.kv("name", "BM_ExecutorScale/16");
  w.key("metrics");
  write_metrics(w, r);
  w.end_object();
  w.end_array();
  w.end_object();
  auto v = JsonValue::parse(w.str());
  ASSERT_TRUE(v.has_value());
  ASSERT_TRUE(validate_report_json(*v).ok())
      << validate_report_json(*v).message();

  auto no_counter = *v;
  JsonValue& mc =
      *find_mutable(find_mutable(no_counter, "runs")->array[0], "metrics");
  erase_member(*find_mutable(mc, "counters"), "net.executor.wakeups");
  EXPECT_FALSE(validate_report_json(no_counter).ok());
  for (const char* gauge :
       {"net.executor.workers", "net.executor.nodes_per_worker"}) {
    auto broken = *v;
    JsonValue& m =
        *find_mutable(find_mutable(broken, "runs")->array[0], "metrics");
    erase_member(*find_mutable(m, "gauges"), gauge);
    const Status st = validate_report_json(broken);
    EXPECT_FALSE(st.ok()) << gauge;
    EXPECT_NE(st.message().find(gauge), std::string::npos) << st.message();
  }
  for (const char* hist :
       {"net.executor.inbox_depth", "net.executor.poll_batch"}) {
    auto broken = *v;
    JsonValue& m =
        *find_mutable(find_mutable(broken, "runs")->array[0], "metrics");
    erase_member(*find_mutable(m, "histograms"), hist);
    EXPECT_FALSE(validate_report_json(broken).ok()) << hist;
  }

  // A run with no net.executor.polls marker (sim bench) is exempt.
  auto plain = *v;
  JsonValue& mp = *find_mutable(find_mutable(plain, "runs")->array[0], "metrics");
  erase_member(*find_mutable(mp, "counters"), "net.executor.polls");
  erase_member(*find_mutable(mp, "gauges"), "net.executor.workers");
  EXPECT_TRUE(validate_report_json(plain).ok())
      << validate_report_json(plain).message();
}

TEST(ReportJson, ValidatorRejectsIncompleteRuns) {
  auto reject = [](const char* doc) {
    const auto v = JsonValue::parse(doc);
    ASSERT_TRUE(v.has_value()) << doc;
    EXPECT_FALSE(validate_report_json(*v).ok()) << doc;
  };
  reject(R"({"schema":"evs.obs.report","version":1,"runs":[]})");  // no source
  reject(R"({"schema":"evs.obs.report","version":1,"source":"b"})");  // no runs
  reject(  // run without a name
      R"({"schema":"evs.obs.report","version":1,"source":"b","runs":[{"metrics":{"counters":{},"gauges":{},"histograms":{}}}]})");
  reject(  // run without metrics
      R"({"schema":"evs.obs.report","version":1,"source":"b","runs":[{"name":"r"}]})");
}

TEST(ValidateDocument, DispatchesOnSchemaTag) {
  EXPECT_FALSE(validate_document("not json at all").ok());
  EXPECT_FALSE(validate_document(R"({"no_schema":true})").ok());
  const Status unknown = validate_document(R"({"schema":"evs.obs.mystery"})");
  EXPECT_FALSE(unknown.ok());
  EXPECT_NE(unknown.message().find("unknown schema"), std::string::npos);
}

}  // namespace
}  // namespace evs::obs
