// What the ring and KV workloads share: the run's settings, the clock, the
// trial structure, and the outcome each workload hands back to main().
#pragma once

#include <sys/resource.h>

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_lib.hpp"
#include "net/udp_transport.hpp"
#include "obs/metrics.hpp"

namespace e2e {

struct RunConfig {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10};
  bool traced{false};
  std::size_t workers{1};
};

/// A run is this many trials, each on a freshly built cluster that gets
/// `seconds / kTrials` of the measured window. Two instances of the same
/// cluster settle into different schedules (which tokens share a worker
/// wake-up, where the anti-entropy rounds fall), and now and then one
/// stalls outright; the median over trials keeps one such instance from
/// setting the run's result.
inline constexpr int kTrials = 5;
/// Unmeasured load at the start of each trial: lets the rings' stores,
/// arenas and the allocator reach steady state.
inline constexpr double kWarmupSeconds = 1.0;

/// The seed of one trial's op schedule; distinct for every (seed, trial).
inline std::uint64_t trial_seed(std::uint64_t seed, int trial) {
  return seed * kTrials + static_cast<std::uint64_t>(trial);
}

/// CLOCK_MONOTONIC in ns since the run's epoch — the same base the
/// transports' schedulers (and so the EVS trace times) use.
class Clock {
 public:
  Clock() : epoch_ns_(evs::UdpTransport::monotonic_now_ns()) {}
  std::int64_t epoch_ns() const { return epoch_ns_; }
  std::int64_t now() const { return evs::UdpTransport::monotonic_now_ns() - epoch_ns_; }
  /// Sleep until `t` (ns since the epoch).
  void sleep_until(std::int64_t t) const;

 private:
  std::int64_t epoch_ns_;
};

/// Process CPU (user, sys) in microseconds.
struct CpuSample {
  double user_us{0};
  double sys_us{0};
  static CpuSample now();
};

/// Peak resident set so far, in MB.
double peak_rss_mb();

/// A named value headed for the result line or the result file.
using Metric = std::pair<std::string, double>;

struct MetricDef {
  const char* name;
  const char* unit;
};
/// The metrics BENCHMARK.json lists, in its order: the result line of an
/// untraced run carries end_to_end_defs(), of a traced run per_layer_defs().
const std::vector<MetricDef>& end_to_end_defs();
const std::vector<MetricDef>& per_layer_defs();

/// One stage of one op, for the chrome-trace dump of a traced run.
struct Span {
  std::string name;
  std::int64_t start_ns{0};
  std::int64_t end_ns{0};
  std::uint32_t lane{0};  ///< node (ring) or shard*100+process (KV)
  std::uint64_t op{0};
};

/// Per-layer values by name; a workload leaves out (reports 0 for) a layer
/// it does not exercise. main() prints them in per_layer_defs() order.
using Layers = std::map<std::string, double>;

struct Outcome {
  /// Sockets could not be opened: main() exits 77.
  bool no_sockets{false};
  /// Output-check failures; any entry fails the run.
  std::vector<std::string> errors;
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::vector<Metric> end_to_end;
  Layers per_layer;
  /// Sample counts and other context, kept in the result file only.
  std::vector<Metric> notes;
  std::vector<Span> spans;
};

/// What one trial measured over its window.
struct TrialTotals {
  double setup_s{0};
  double window_s{0};
  double attempted{0};  ///< ops due in the window
  double served{0};     ///< of those, ops that completed as asked
  double completed{0};  ///< ops whose completion fell in the window
  /// Due -> commit, for ops due in the window (or a fixed share of them).
  std::vector<LatencySample> commit;
  /// The trial ran a scripted partition. Its latencies are left out of the
  /// commit percentiles, which describe the healthy cluster; the partition
  /// shows in served_ratio and the layer metrics.
  bool faulted{false};
  CpuSample cpu_start;
  CpuSample cpu_end;
};

/// BENCHMARK.json's end-to-end metrics, in its order: the median over the
/// trials, except the commit percentiles (sliced_percentile over the
/// healthy trials), served_ratio (pooled over every trial's ops) and
/// peak_rss_mb (the process's peak).
std::vector<Metric> end_to_end_metrics(const std::vector<TrialTotals>& trials,
                                       double peak_rss_mb);

/// For the result file: how many commit latencies were sampled, and the
/// highest percentile with ten of them beyond it, pooled over the trials.
std::vector<Metric> commit_tail_notes(const std::vector<TrialTotals>& trials);

/// Inputs of the layer metrics every workload reports, gathered over all
/// trials. Node registries and transport counters are snapshotted per node
/// when a trial's load starts and once it has drained; storage and executor
/// counters are only readable once the executor stopped, so they are
/// whole-lifetime totals over every op the cluster saw (a KV preload
/// included).
struct LayerInputs {
  std::vector<evs::obs::MetricsRegistry> regs_before;
  std::vector<evs::obs::MetricsRegistry> regs_after;
  std::vector<evs::UdpTransport::Stats> net_before;
  std::vector<evs::UdpTransport::Stats> net_after;
  evs::obs::MetricsRegistry lifetime;
  double load_ops{0};
  double lifetime_ops{0};
  double cpu_user_us{0};  ///< in the trials' windows
  double cpu_sys_us{0};
};
void common_layers(const LayerInputs& in, Layers& out);

/// Ascending copy of nanosecond samples, in microseconds.
std::vector<double> sorted_us(const std::vector<std::int64_t>& ns);

/// Run `fn` on the thread that drives this transport and wait for it. When
/// the loop has already finished (post refused), run it inline: nothing can
/// race it any more.
void call_on(evs::UdpTransport& t, const std::function<void()>& fn);

/// Poll `pred` every 2 ms until it holds or `timeout_s` passes.
bool await(const std::function<bool()>& pred, double timeout_s);

Outcome run_ring(const RunConfig& cfg);
Outcome run_kv(const RunConfig& cfg);

}  // namespace e2e
