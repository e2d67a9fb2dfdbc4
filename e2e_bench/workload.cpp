#include "workload.hpp"

#include <time.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <future>
#include <thread>

namespace e2e {

void Clock::sleep_until(std::int64_t t) const {
  const std::int64_t abs_ns = epoch_ns_ + t;
  timespec ts;
  ts.tv_sec = static_cast<time_t>(abs_ns / 1'000'000'000);
  ts.tv_nsec = static_cast<long>(abs_ns % 1'000'000'000);
  while (::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) == EINTR) {
  }
}

CpuSample CpuSample::now() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  auto us = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e6 + static_cast<double>(tv.tv_usec);
  };
  return CpuSample{us(ru.ru_utime), us(ru.ru_stime)};
}

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

const std::vector<MetricDef>& end_to_end_defs() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},        {"throughput_ops_s", "1/s"}, {"served_ratio", "ratio"},
      {"commit_p50_us", "us"}, {"commit_p99_us", "us"},     {"cpu_us_per_op", "us"},
      {"peak_rss_mb", "MB"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_defs() {
  static const std::vector<MetricDef> defs = {
      {"net.datagrams_per_op", "count"},
      {"net.bytes_per_op", "B"},
      {"net.executor.polls_per_op", "count"},
      {"net.executor.wakeups_per_op", "count"},
      {"net.cpu_sys_share", "ratio"},
      {"net.inbox_hop_us_p50", "us"},
      {"net.inbox_hop_us_p99", "us"},
      {"totem.tokens_per_op", "count"},
      {"totem.duplicate_ratio", "ratio"},
      {"totem.piggyback_adopted_ratio", "ratio"},
      {"totem.retransmits_per_op", "count"},
      {"totem.store_msgs_peak", "count"},
      {"evs.deliver_batch_size_mean", "count"},
      {"evs.backpressure_per_op", "count"},
      {"evs.send_batch_call_us_p99", "us"},
      {"evs.stamp_wait_us_p50", "us"},
      {"evs.order_us_p50", "us"},
      {"evs.fanout_us_p50", "us"},
      {"storage.writes_per_op", "count"},
      {"storage.bytes_per_op", "B"},
      {"member.gathers", "count"},
      {"member.recoveries", "count"},
      {"member.gather_us_mean", "us"},
      {"shard.catch_up_ms", "ms"},
      {"shard.transfer_bytes", "B"},
      {"shard.outage_ms", "ms"},
      {"apps.kv.get_p50_us", "us"},
      {"apps.kv.get_p99_us", "us"},
      {"apps.kv.get_call_us_p99", "us"},
      {"apps.kv.put_call_us_p99", "us"},
      {"apps.kv.put_admit_us_p50", "us"},
      {"apps.kv.refused_not_primary", "count"},
      {"apps.kv.refused_catching_up", "count"},
      {"apps.kv.minority_commits", "count"},
      {"bench.gen_lag_us_p99", "us"},
  };
  return defs;
}

std::vector<double> sorted_us(const std::vector<std::int64_t>& ns) {
  std::vector<double> out;
  out.reserve(ns.size());
  for (const std::int64_t v : ns) out.push_back(static_cast<double>(v) / 1e3);
  std::sort(out.begin(), out.end());
  return out;
}

void call_on(evs::UdpTransport& t, const std::function<void()>& fn) {
  std::promise<void> done;
  std::future<void> waiter = done.get_future();
  if (!t.post([&fn, &done] {
        fn();
        done.set_value();
      })) {
    fn();
    return;
  }
  waiter.wait();
}

std::vector<Metric> end_to_end_metrics(const std::vector<TrialTotals>& trials,
                                       double peak_rss_mb) {
  auto over_trials = [&](const std::function<double(const TrialTotals&)>& f) {
    std::vector<double> v;
    for (const TrialTotals& t : trials) v.push_back(f(t));
    return median(v);
  };
  std::vector<const std::vector<LatencySample>*> healthy;
  for (const TrialTotals& t : trials) {
    if (!t.faulted) healthy.push_back(&t.commit);
  }
  auto commit = [&](double p) { return sliced_percentile(healthy, trials.front().window_s, p); };
  double attempted = 0;
  double served = 0;
  for (const TrialTotals& t : trials) {
    attempted += t.attempted;
    served += t.served;
  }
  return {
      {"setup_s", over_trials([](const TrialTotals& t) { return t.setup_s; })},
      {"throughput_ops_s", over_trials([](const TrialTotals& t) { return t.completed / t.window_s; })},
      {"served_ratio", attempted > 0 ? served / attempted : 0},
      {"commit_p50_us", commit(50)},
      {"commit_p99_us", commit(99)},
      {"cpu_us_per_op", over_trials([](const TrialTotals& t) {
         const double us = (t.cpu_end.user_us + t.cpu_end.sys_us) -
                           (t.cpu_start.user_us + t.cpu_start.sys_us);
         return t.completed > 0 ? us / t.completed : 0;
       })},
      {"peak_rss_mb", peak_rss_mb},
  };
}

std::vector<Metric> commit_tail_notes(const std::vector<TrialTotals>& trials) {
  std::vector<double> all;
  for (const TrialTotals& t : trials) {
    for (const LatencySample& s : t.commit) all.push_back(s.latency_us);
  }
  std::sort(all.begin(), all.end());
  const double p = supported_percentile(all.size());
  return {{"commit_samples", static_cast<double>(all.size())},
          {"commit_tail_percentile", p},
          {"commit_tail_us", p > 0 ? percentile(all, p) : 0}};
}

bool await(const std::function<bool()>& pred, double timeout_s) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::microseconds(static_cast<std::int64_t>(timeout_s * 1e6));
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

namespace {

evs::obs::MetricsRegistry merged(const std::vector<evs::obs::MetricsRegistry>& regs) {
  evs::obs::MetricsRegistry out;
  for (const auto& r : regs) out.merge_from(r);
  return out;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Mean of the samples a histogram gained between two snapshots. Exact, from
/// the histogram's sum and count; its percentiles are log2 bucket bounds,
/// too coarse to show a change short of 2x.
double histogram_delta_mean(const evs::obs::MetricsRegistry& before,
                            const evs::obs::MetricsRegistry& after, const std::string& name) {
  const auto* b = before.find_histogram(name);
  const auto* a = after.find_histogram(name);
  if (a == nullptr) return 0;
  const double sum = static_cast<double>(a->sum() - (b != nullptr ? b->sum() : 0));
  const double count = static_cast<double>(a->count() - (b != nullptr ? b->count() : 0));
  return ratio(sum, count);
}

}  // namespace

void common_layers(const LayerInputs& in, Layers& out) {
  const evs::obs::MetricsRegistry b = merged(in.regs_before);
  const evs::obs::MetricsRegistry a = merged(in.regs_after);
  auto delta = [&](const std::string& name) {
    return static_cast<double>(a.counter_value(name) - b.counter_value(name));
  };
  const double ops = in.load_ops;
  out["totem.tokens_per_op"] = ratio(delta("evs.tokens_handled"), ops);
  out["totem.duplicate_ratio"] = ratio(delta("evs.duplicate_regulars"), delta("evs.delivered"));
  out["totem.piggyback_adopted_ratio"] =
      ratio(delta("ordering.piggybacked_msgs"), delta("ordering.piggyback_carried"));
  out["totem.retransmits_per_op"] = ratio(delta("ordering.retransmits_sent"), ops);
  out["evs.backpressure_per_op"] = ratio(delta("evs.backpressure_rejections"), ops);
  out["member.gathers"] = delta("evs.gathers");
  out["member.recoveries"] = delta("evs.recoveries");
  out["member.gather_us_mean"] = histogram_delta_mean(b, a, "evs.gather_us");
  out["evs.deliver_batch_size_mean"] = histogram_delta_mean(b, a, "evs.deliver_batch_size");
  double peak = 0;
  for (const auto& r : in.regs_after) {
    if (const auto* g = r.find_gauge("ordering.store_msgs_peak"); g != nullptr) {
      peak = std::max(peak, static_cast<double>(g->value()));
    }
  }
  out["totem.store_msgs_peak"] = peak;

  double datagrams = 0;
  double bytes = 0;
  for (std::size_t i = 0; i < in.net_after.size(); ++i) {
    datagrams += static_cast<double>(in.net_after[i].datagrams_sent - in.net_before[i].datagrams_sent);
    bytes += static_cast<double>(in.net_after[i].bytes_sent - in.net_before[i].bytes_sent);
  }
  out["net.datagrams_per_op"] = ratio(datagrams, ops);
  out["net.bytes_per_op"] = ratio(bytes, ops);
  out["net.cpu_sys_share"] = ratio(in.cpu_sys_us, in.cpu_user_us + in.cpu_sys_us);

  auto per_op = [&](const std::string& name) {
    return ratio(static_cast<double>(in.lifetime.counter_value(name)), in.lifetime_ops);
  };
  out["storage.writes_per_op"] = per_op("storage.writes");
  out["storage.bytes_per_op"] = per_op("storage.bytes");
  out["net.executor.polls_per_op"] = per_op("net.executor.polls");
  out["net.executor.wakeups_per_op"] = per_op("net.executor.wakeups");
}

}  // namespace e2e
