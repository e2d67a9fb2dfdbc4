#include "obs/export.hpp"

namespace evs::obs {

void write_metrics(JsonWriter& w, const MetricsRegistry& registry) {
  w.begin_object();
  w.key("counters").begin_object();
  for (const auto& [name, c] : registry.counters()) w.kv(name, c.value());
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& [name, g] : registry.gauges()) {
    w.kv(name, static_cast<std::int64_t>(g.value()));
  }
  w.end_object();
  w.key("histograms").begin_object();
  for (const auto& [name, h] : registry.histograms()) {
    w.key(name).begin_object();
    w.kv("count", h.count());
    w.kv("sum", h.sum());
    w.kv("min", h.min());
    w.kv("max", h.max());
    w.kv("p50", h.percentile(50));
    w.kv("p99", h.percentile(99));
    w.key("buckets").begin_object();
    for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
      if (h.bucket(i) != 0) w.kv(std::to_string(i), h.bucket(i));
    }
    w.end_object();
    w.end_object();
  }
  w.end_object();
  w.end_object();
}

std::string metrics_json(const MetricsRegistry& registry) {
  JsonWriter w;
  write_metrics(w, registry);
  return w.take();
}

// --------------------------------------------------------------------------
// validation

namespace {

Status shape_error(const std::string& where, const std::string& what) {
  return Status::error(Errc::decode_error, where + ": " + what);
}

Status check_int_members(const JsonValue& obj, const std::string& where) {
  for (const auto& [name, value] : obj.object) {
    if (!value.is_number()) {
      return shape_error(where, "member '" + name + "' is not a number");
    }
  }
  return Status::ok_status();
}

Status check_histogram(const JsonValue& h, const std::string& where) {
  if (!h.is_object()) return shape_error(where, "histogram is not an object");
  for (const char* field : {"count", "sum", "min", "max", "p50", "p99"}) {
    const JsonValue* v = h.find(field);
    if (v == nullptr || !v->is_number()) {
      return shape_error(where, std::string("missing numeric '") + field + "'");
    }
  }
  const JsonValue* buckets = h.find("buckets");
  if (buckets == nullptr || !buckets->is_object()) {
    return shape_error(where, "missing 'buckets' object");
  }
  return check_int_members(*buckets, where + ".buckets");
}

/// The bounded-memory surface: every EVS-driven metrics set must carry the
/// flow-control gauges and backpressure counter (EvsNode pre-creates them at
/// construction), so a refactor that silently drops them fails validation —
/// and with it bench_smoke and the obs tests under ctest.
Status check_memory_metrics(const JsonValue& metrics, const std::string& where) {
  const JsonValue* gauges = metrics.find("gauges");
  const JsonValue* counters = metrics.find("counters");
  for (const char* g :
       {"ordering.store_bytes", "ordering.store_msgs", "evs.pending_sends"}) {
    if (gauges == nullptr || gauges->find(g) == nullptr) {
      return shape_error(where, std::string("missing memory gauge '") + g + "'");
    }
  }
  if (counters == nullptr || counters->find("evs.backpressure_rejections") == nullptr) {
    return shape_error(where, "missing counter 'evs.backpressure_rejections'");
  }
  return Status::ok_status();
}

/// The datagram-batching surface: EvsNode pre-creates the packing counter
/// and the delivery-batch-size histogram, so any EVS-driven metrics set
/// missing them means the zero-copy hot path lost its instrumentation —
/// fail validation (this is what keeps BENCH_udp_live.json honest about
/// batching actually engaging).
Status check_batching_metrics(const JsonValue& metrics, const std::string& where) {
  const JsonValue* counters = metrics.find("counters");
  if (counters == nullptr || counters->find("net.datagrams_packed") == nullptr) {
    return shape_error(where, "missing batching counter 'net.datagrams_packed'");
  }
  const JsonValue* hists = metrics.find("histograms");
  if (hists == nullptr || hists->find("evs.deliver_batch_size") == nullptr) {
    return shape_error(where, "missing histogram 'evs.deliver_batch_size'");
  }
  return Status::ok_status();
}

/// The sharded-KV surface: every apps::KvShardedNode pre-creates the kv.*
/// counters — including the state-transfer / anti-entropy family its
/// per-shard TransferEngines bind — the shard.local_shards gauge and the
/// put-batch and catch-up histograms, so a metrics set that routed KV
/// traffic (marker: kv.puts) but lost any of them means the dispatch or
/// transfer layer's instrumentation regressed — fail validation (this
/// keeps BENCH_kv_sharded.json and BENCH_kv_transfer.json honest).
Status check_kv_metrics(const JsonValue& metrics, const std::string& where) {
  const JsonValue* counters = metrics.find("counters");
  for (const char* c :
       {"kv.gets", "kv.applied", "kv.rejected_not_replica",
        "kv.rejected_backpressure", "kv.reads_blocked", "kv.writes_blocked",
        "kv.rejected_decode", "kv.transfer.sessions", "kv.transfer.completed",
        "kv.transfer.aborted", "kv.transfer.retries",
        "kv.transfer.chunks_sent", "kv.transfer.chunks_applied",
        "kv.transfer.bytes_sent", "kv.transfer.bytes_applied",
        "kv.transfer.chunk_crc_rejects", "kv.transfer.claims",
        "kv.reads_catching_up", "kv.stale_reads", "kv.antientropy_rounds",
        "kv.antientropy_repairs"}) {
    if (counters == nullptr || counters->find(c) == nullptr) {
      return shape_error(where, std::string("missing kv counter '") + c + "'");
    }
  }
  const JsonValue* gauges = metrics.find("gauges");
  if (gauges == nullptr || gauges->find("shard.local_shards") == nullptr) {
    return shape_error(where, "missing gauge 'shard.local_shards'");
  }
  const JsonValue* hists = metrics.find("histograms");
  for (const char* h : {"kv.put_batch_size", "kv.transfer.catch_up_us"}) {
    if (hists == nullptr || hists->find(h) == nullptr) {
      return shape_error(where, std::string("missing histogram '") + h + "'");
    }
  }
  return Status::ok_status();
}

/// The sharded-executor surface: an Executor pre-creates the worker gauges
/// and the inbox-depth / poll-batch histograms alongside the polls counter,
/// so a metrics set whose run was executor-driven (marker: the
/// net.executor.polls counter) missing any of them means the scheduling
/// instrumentation regressed — fail validation (this keeps
/// BENCH_executor_scale.json honest about nodes-per-worker and batching).
Status check_executor_metrics(const JsonValue& metrics, const std::string& where) {
  const JsonValue* counters = metrics.find("counters");
  if (counters == nullptr || counters->find("net.executor.wakeups") == nullptr) {
    return shape_error(where, "missing counter 'net.executor.wakeups'");
  }
  const JsonValue* gauges = metrics.find("gauges");
  for (const char* g : {"net.executor.workers", "net.executor.nodes_per_worker"}) {
    if (gauges == nullptr || gauges->find(g) == nullptr) {
      return shape_error(where, std::string("missing executor gauge '") + g + "'");
    }
  }
  const JsonValue* hists = metrics.find("histograms");
  for (const char* h : {"net.executor.inbox_depth", "net.executor.poll_batch"}) {
    if (hists == nullptr || hists->find(h) == nullptr) {
      return shape_error(where, std::string("missing executor histogram '") + h + "'");
    }
  }
  return Status::ok_status();
}

/// The crash-consistency surface: every StableStore pre-creates the
/// "storage.*" counters, and every cluster aggregate folds its stores in,
/// so a snapshot (or a bench run that drove EVS nodes) missing them means
/// the fallible-storage instrumentation was dropped — fail validation.
Status check_storage_metrics(const JsonValue& metrics, const std::string& where) {
  const JsonValue* counters = metrics.find("counters");
  for (const char* c :
       {"storage.writes", "storage.bytes", "storage.write_failures",
        "storage.torn_records", "storage.crc_failures", "storage.repairs"}) {
    if (counters == nullptr || counters->find(c) == nullptr) {
      return shape_error(where, std::string("missing storage counter '") + c + "'");
    }
  }
  return Status::ok_status();
}

Status check_schema_header(const JsonValue& v, const std::string& expect_schema) {
  const JsonValue* schema = v.find("schema");
  if (schema == nullptr || !schema->is_string() || schema->string != expect_schema) {
    return shape_error(expect_schema, "missing or wrong 'schema' tag");
  }
  const JsonValue* version = v.find("version");
  if (version == nullptr || !version->is_number() || version->number != 1) {
    return shape_error(expect_schema, "missing or unsupported 'version'");
  }
  return Status::ok_status();
}

}  // namespace

Status validate_metrics_json(const JsonValue& v) {
  if (!v.is_object()) return shape_error("metrics", "not an object");
  for (const char* section : {"counters", "gauges"}) {
    const JsonValue* s = v.find(section);
    if (s == nullptr || !s->is_object()) {
      return shape_error("metrics", std::string("missing '") + section + "' object");
    }
    if (Status st = check_int_members(*s, section); !st.ok()) return st;
  }
  const JsonValue* hists = v.find("histograms");
  if (hists == nullptr || !hists->is_object()) {
    return shape_error("metrics", "missing 'histograms' object");
  }
  for (const auto& [name, h] : hists->object) {
    if (Status st = check_histogram(h, "histograms." + name); !st.ok()) return st;
  }
  return Status::ok_status();
}

Status validate_snapshot_json(const JsonValue& v) {
  if (!v.is_object()) return shape_error("snapshot", "not an object");
  if (Status st = check_schema_header(v, "evs.obs.snapshot"); !st.ok()) return st;
  const JsonValue* time = v.find("time_us");
  if (time == nullptr || !time->is_number()) {
    return shape_error("snapshot", "missing numeric 'time_us'");
  }
  const JsonValue* nodes = v.find("nodes");
  if (nodes == nullptr || !nodes->is_array()) {
    return shape_error("snapshot", "missing 'nodes' array");
  }
  for (const JsonValue& node : nodes->array) {
    if (!node.is_object()) return shape_error("snapshot.nodes", "entry not an object");
    const JsonValue* pid = node.find("pid");
    if (pid == nullptr || !pid->is_number()) {
      return shape_error("snapshot.nodes", "missing numeric 'pid'");
    }
    const JsonValue* state = node.find("state");
    if (state == nullptr || !state->is_string()) {
      return shape_error("snapshot.nodes", "missing string 'state'");
    }
    if (const JsonValue* metrics = node.find("metrics")) {
      if (Status st = validate_metrics_json(*metrics); !st.ok()) return st;
    }
  }
  for (const char* section : {"network", "aggregate"}) {
    const JsonValue* m = v.find(section);
    if (m == nullptr) return shape_error("snapshot", std::string("missing '") + section + "'");
    if (Status st = validate_metrics_json(*m); !st.ok()) return st;
  }
  // The aggregate folds in every node's registry, so the memory-bound
  // instruments must always be present there — and every store's registry,
  // so the storage instruments must be too.
  if (Status st = check_memory_metrics(*v.find("aggregate"), "snapshot.aggregate");
      !st.ok()) {
    return st;
  }
  if (Status st = check_storage_metrics(*v.find("aggregate"), "snapshot.aggregate");
      !st.ok()) {
    return st;
  }
  if (Status st = check_batching_metrics(*v.find("aggregate"), "snapshot.aggregate");
      !st.ok()) {
    return st;
  }
  // Aggregates from executor-driven runs (live clusters) fold the executor
  // registry in; sim aggregates have no net.executor.* marker and skip this.
  if (const JsonValue* agg_counters = v.find("aggregate")->find("counters");
      agg_counters != nullptr &&
      agg_counters->find("net.executor.polls") != nullptr) {
    if (Status st =
            check_executor_metrics(*v.find("aggregate"), "snapshot.aggregate");
        !st.ok()) {
      return st;
    }
  }
  const JsonValue* faults = v.find("faults");
  if (faults == nullptr || !faults->is_object()) {
    return shape_error("snapshot", "missing 'faults' object");
  }
  return check_int_members(*faults, "faults");
}

Status validate_report_json(const JsonValue& v) {
  if (!v.is_object()) return shape_error("report", "not an object");
  if (Status st = check_schema_header(v, "evs.obs.report"); !st.ok()) return st;
  const JsonValue* source = v.find("source");
  if (source == nullptr || !source->is_string() || source->string.empty()) {
    return shape_error("report", "missing string 'source'");
  }
  const JsonValue* runs = v.find("runs");
  if (runs == nullptr || !runs->is_array()) {
    return shape_error("report", "missing 'runs' array");
  }
  for (const JsonValue& run : runs->array) {
    if (!run.is_object()) return shape_error("report.runs", "entry not an object");
    const JsonValue* name = run.find("name");
    if (name == nullptr || !name->is_string() || name->string.empty()) {
      return shape_error("report.runs", "missing string 'name'");
    }
    const JsonValue* metrics = run.find("metrics");
    if (metrics == nullptr) return shape_error("report.runs", "missing 'metrics'");
    if (Status st = validate_metrics_json(*metrics); !st.ok()) return st;
    // Runs that exercised EVS nodes (marker: the always-created evs.sent
    // counter) must carry the memory-bound and storage instruments too.
    const JsonValue* counters = metrics->find("counters");
    if (counters != nullptr && counters->find("evs.sent") != nullptr) {
      if (Status st = check_memory_metrics(*metrics, "report." + name->string);
          !st.ok()) {
        return st;
      }
      if (Status st = check_storage_metrics(*metrics, "report." + name->string);
          !st.ok()) {
        return st;
      }
      if (Status st = check_batching_metrics(*metrics, "report." + name->string);
          !st.ok()) {
        return st;
      }
    }
    // Runs that routed sharded-KV traffic must carry the full kv.* surface.
    if (counters != nullptr && counters->find("kv.puts") != nullptr) {
      if (Status st = check_kv_metrics(*metrics, "report." + name->string);
          !st.ok()) {
        return st;
      }
    }
    // Runs driven by the sharded executor must carry its full surface.
    if (counters != nullptr && counters->find("net.executor.polls") != nullptr) {
      if (Status st = check_executor_metrics(*metrics, "report." + name->string);
          !st.ok()) {
        return st;
      }
    }
  }
  return Status::ok_status();
}

Status validate_document(const std::string& text) {
  const auto parsed = JsonValue::parse(text);
  if (!parsed.has_value()) {
    return Status::error(Errc::decode_error, "not valid JSON");
  }
  const JsonValue* schema = parsed->find("schema");
  if (schema == nullptr || !schema->is_string()) {
    return shape_error("document", "missing 'schema' tag");
  }
  if (schema->string == "evs.obs.snapshot") return validate_snapshot_json(*parsed);
  if (schema->string == "evs.obs.report") return validate_report_json(*parsed);
  return shape_error("document", "unknown schema '" + schema->string + "'");
}

}  // namespace evs::obs
