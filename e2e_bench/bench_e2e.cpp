// bench_e2e: wall-clock, open-loop benchmark of the EVS library over live
// loopback UDP. One run = one workload; see README.md for what each
// workload and metric means.
//
//   bench_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>] [--git-sha <sha>]
//
// The last line of stdout is the result: {"correct", "attempted", "failed",
// "metrics"} with the end-to-end metrics (--trace 0) or the per-layer ones
// (--trace 1). The same line, with the host's environment and sample
// counts, is kept in <out-dir>/results/; a traced run also writes its
// per-op stage spans to <out-dir>/traces/ as chrome-trace JSON. Exit 77:
// no usable sockets. Exit 1: an output check failed (nothing printed on
// stdout).
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "bench_lib.hpp"
#include "obs/json.hpp"
#include "util/log.hpp"
#include "workload.hpp"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

namespace {

using e2e::JsonObject;

const char* const kWorkloads[] = {"ring_agreed_open", "ring_safe_saturate", "kv_ycsb_a_zipf",
                                  "kv_ycsb_b_partition"};

int usage(const char* why) {
  std::cerr << "bench_e2e: " << why
            << "\nusage: bench_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>"
               " [--out-dir <dir>] [--git-sha <sha>]\nworkloads:";
  for (const char* w : kWorkloads) std::cerr << ' ' << w;
  std::cerr << '\n';
  return 2;
}

std::string sanitizer() {
#if defined(__SANITIZE_ADDRESS__)
  return "address";
#elif defined(__SANITIZE_THREAD__)
  return "thread";
#else
  return "none";
#endif
}

std::string kernel() {
  utsname u{};
  return ::uname(&u) == 0 ? std::string(u.sysname) + " " + u.release : "unknown";
}

std::string metrics_json(const std::vector<e2e::Metric>& values,
                         const std::vector<e2e::MetricDef>& defs) {
  JsonObject m;
  for (const e2e::MetricDef& d : defs) {
    const auto it = std::find_if(values.begin(), values.end(),
                                 [&](const e2e::Metric& v) { return v.first == d.name; });
    JsonObject entry;
    entry.num("value", it == values.end() ? 0 : it->second).str("unit", d.unit);
    m.raw(d.name, entry.dump());
  }
  return m.dump();
}

std::string chrome_trace(const std::vector<e2e::Span>& spans) {
  std::string out = "{\"traceEvents\": [";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const e2e::Span& s = spans[i];
    JsonObject args;
    args.num("op", static_cast<double>(s.op));
    JsonObject ev;
    ev.str("name", s.name)
        .str("ph", "X")
        .num("ts", static_cast<double>(s.start_ns) / 1e3)
        .num("dur", static_cast<double>(std::max<std::int64_t>(0, s.end_ns - s.start_ns)) / 1e3)
        .num("pid", 1)
        .num("tid", s.lane)
        .raw("args", args.dump());
    out += (i == 0 ? "\n" : ",\n") + ev.dump();
  }
  return out + "\n]}\n";
}

/// The end-to-end metrics of an earlier untraced result file; empty when
/// there is none or it does not parse.
std::vector<e2e::Metric> untraced_end_to_end(const std::filesystem::path& path) {
  std::ifstream f(path);
  std::stringstream text;
  text << f.rdbuf();
  std::string doc = text.str();
  while (!doc.empty() && std::isspace(static_cast<unsigned char>(doc.back()))) doc.pop_back();
  const auto parsed = evs::obs::JsonValue::parse(doc);
  const evs::obs::JsonValue* result = parsed ? parsed->find("result") : nullptr;
  const evs::obs::JsonValue* metrics = result != nullptr ? result->find("metrics") : nullptr;
  std::vector<e2e::Metric> out;
  if (metrics == nullptr || !metrics->is_object()) return out;
  for (const auto& [name, m] : metrics->object) {
    const evs::obs::JsonValue* v = m.find("value");
    if (v != nullptr && v->is_number()) out.emplace_back(name, v->number);
  }
  return out;
}

bool write_file(const std::filesystem::path& path, const std::string& text) {
  std::error_code ec;
  std::filesystem::create_directories(path.parent_path(), ec);
  std::ofstream f(path);
  f << text;
  return static_cast<bool>(f);
}

}  // namespace

int main(int argc, char** argv) {
  e2e::RunConfig cfg;
  std::string out_dir = ".bench_out";
  std::string git_sha = "unknown";
  int trace = -1;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string val = argv[++i];
    try {
      if (arg == "--workload") {
        cfg.workload = val;
      } else if (arg == "--seed") {
        cfg.seed = std::stoull(val);
        have_seed = true;
      } else if (arg == "--seconds") {
        cfg.seconds = std::stod(val);
        have_seconds = true;
      } else if (arg == "--trace") {
        trace = std::stoi(val);
      } else if (arg == "--out-dir") {
        out_dir = val;
      } else if (arg == "--git-sha") {
        git_sha = val;
      } else {
        return usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + arg).c_str());
    }
  }
  if (std::find_if(std::begin(kWorkloads), std::end(kWorkloads), [&](const char* w) {
        return cfg.workload == w;
      }) == std::end(kWorkloads)) {
    return usage("unknown workload");
  }
  if (!have_seed || !have_seconds || !(cfg.seconds > 0 && cfg.seconds <= 120) ||
      (trace != 0 && trace != 1)) {
    return usage("--seed, --seconds (0, 120] and --trace 0|1 are required");
  }
  cfg.traced = trace == 1;
  const long nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
  // One core stays free for the load generator.
  cfg.workers = nproc > 1 ? static_cast<std::size_t>(nproc - 1) : 1;

  const std::string build_type = E2E_BUILD_TYPE;
  const bool valid = build_type != "Debug" && build_type != "unknown" && sanitizer() == "none";
  JsonObject env;
  env.str("git_sha", git_sha)
      .str("build_type", build_type)
      .str("compiler", std::string("gcc ") + __VERSION__)
      .num("nproc", static_cast<double>(nproc))
      .str("sanitizer", sanitizer())
      .num("workers", static_cast<double>(cfg.workers))
      .str("kernel", kernel());
  std::cerr << "bench_e2e: " << cfg.workload << " seed=" << cfg.seed << " seconds=" << cfg.seconds
            << " trace=" << trace << " env=" << env.dump() << '\n';

  // Ring formation under a loaded executor logs recovery retries as
  // warnings; setup_s already accounts for them.
  evs::Log::set_level(evs::LogLevel::Error);
  const e2e::Outcome out =
      cfg.workload.rfind("ring_", 0) == 0 ? e2e::run_ring(cfg) : e2e::run_kv(cfg);
  if (out.no_sockets) {
    std::cerr << "bench_e2e: sockets unavailable, skipping\n";
    return 77;
  }
  for (const std::string& e : out.errors) std::cerr << "bench_e2e: check failed: " << e << '\n';
  if (!out.errors.empty()) return 1;

  std::vector<e2e::Metric> layer_values(out.per_layer.begin(), out.per_layer.end());
  const std::string metrics =
      cfg.traced ? metrics_json(layer_values, e2e::per_layer_defs())
                 : metrics_json(out.end_to_end, e2e::end_to_end_defs());
  JsonObject result;
  result.raw("correct", "true")
      .num("attempted", static_cast<double>(out.attempted))
      .num("failed", static_cast<double>(out.failed))
      .raw("metrics", metrics);

  const std::string stem = cfg.workload + ".seed" + std::to_string(cfg.seed);
  const std::filesystem::path dir(out_dir);
  JsonObject notes;
  for (const auto& [k, v] : out.notes) notes.num(k, v);
  if (cfg.traced) {
    // How far tracing moved each end-to-end metric, against the untraced
    // run of the same workload and seed when one is on record.
    for (const auto& [name, untraced] : untraced_end_to_end(dir / "results" / (stem + ".trace0.json"))) {
      const auto it = std::find_if(out.end_to_end.begin(), out.end_to_end.end(),
                                   [&](const e2e::Metric& m) { return m.first == name; });
      if (it != out.end_to_end.end() && untraced != 0) {
        notes.num("tracing_moved." + name, it->second / untraced - 1);
      }
    }
  }
  JsonObject record;
  record.str("workload", cfg.workload)
      .num("seed", static_cast<double>(cfg.seed))
      .num("seconds", cfg.seconds)
      .num("trace", trace)
      .raw("valid", valid ? "true" : "false")
      .raw("env", env.dump())
      .raw("notes", notes.dump())
      .raw("result", result.dump());
  if (!write_file(dir / "results" / (stem + ".trace" + std::to_string(trace) + ".json"),
                  record.dump() + "\n")) {
    std::cerr << "bench_e2e: could not write the result file under " << out_dir << '\n';
  }
  if (cfg.traced && !write_file(dir / "traces" / (stem + ".json"), chrome_trace(out.spans))) {
    std::cerr << "bench_e2e: could not write the trace under " << out_dir << '\n';
  }
  std::cerr << "bench_e2e: notes=" << notes.dump() << '\n';
  std::cout << result.dump() << std::endl;
  return 0;
}
