// Pieces of the end-to-end benchmark that have no sockets in them: the
// seeded op schedule, the zipf key sampler, percentile rules and the result
// line's JSON. Kept apart from the workloads so the unit tests can pin them.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

/// splitmix64. The benchmark carries its own generator so that a schedule is
/// a function of the seed alone, not of whatever the library's Rng becomes.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

/// YCSB's zipfian generator (Gray et al., "Quickly generating billion-record
/// synthetic databases"): rank 0 is the hottest key, drawn with probability
/// 1 / zeta(n, theta).
class Zipf {
 public:
  Zipf(std::uint64_t n, double theta);
  std::uint64_t sample(double u) const;

 private:
  std::uint64_t n_;
  double theta_;
  double zetan_;
  double alpha_;
  double eta_;
};

enum class OpKind : std::uint8_t { Send, Get, Put };

/// One op of an open-loop schedule: when it is due (ns after the load
/// starts), what it is, and which target serves it. For ring workloads
/// `pick` is the sending node; for KV it indexes the key's replica group.
struct ScheduledOp {
  std::int64_t due_ns{0};
  OpKind kind{OpKind::Send};
  std::uint32_t key{0};
  std::uint32_t pick{0};

  bool operator==(const ScheduledOp&) const = default;
};

struct ScheduleSpec {
  double rate_per_s{0};
  double seconds{0};
  std::uint32_t picks{1};
  /// 0 = ring messages (no keys); otherwise the KV key space.
  std::uint32_t keys{0};
  double put_share{0};
  /// 0 = uniform keys, else the zipf exponent.
  double zipf_theta{0};
};

/// Poisson arrivals at `rate_per_s` for `seconds`: independent users, so
/// the load does not slow when the system does.
std::vector<ScheduledOp> make_schedule(std::uint64_t seed, const ScheduleSpec& spec);

/// Nearest-rank percentile (p in (0, 100]) of an ascending sample; 0 when
/// the sample is empty.
double percentile(const std::vector<double>& sorted, double p);

/// The highest of p50, p90, p99, p99.9, p99.99 that leaves at least ten
/// samples beyond it; 0 when even the median does not.
double supported_percentile(std::size_t samples);

/// One latency sample: when its op was due (us after the window opened)
/// and how long the op took.
struct LatencySample {
  std::uint32_t due_us{0};
  float latency_us{0};
};

/// Samples a slice holds at least: fifty beyond its p99.
inline constexpr std::size_t kMinSliceSamples = 5000;

/// Nearest-rank p-th percentile of several trials' latencies (each trial's
/// window lasting `window_s`), robust to stalls of the host. Each trial is
/// cut by due time into equal slices, one per second or fewer so that each
/// holds kMinSliceSamples on average; the samples of trials too small for
/// one slice are pooled into one. The result is the median of the slices'
/// percentiles, so one stall moves one slice, not the result.
double sliced_percentile(const std::vector<const std::vector<LatencySample>*>& trials,
                         double window_s, double p);

/// Median (the mean of the middle two for an even count); 0 when empty.
double median(std::vector<double> values);

/// A flat JSON object of numbers and strings, printed in insertion order.
/// (obs::JsonWriter prints doubles to six significant digits; a result
/// keeps every digit it measured.)
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double value);
  JsonObject& str(const std::string& key, const std::string& value);
  JsonObject& raw(const std::string& key, const std::string& json);
  std::string dump() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Shortest text that reads back as exactly `v` (all its digits).
std::string format_number(double v);

}  // namespace e2e
