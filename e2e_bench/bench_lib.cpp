#include "bench_lib.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>

#include "obs/json.hpp"

namespace e2e {

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

Zipf::Zipf(std::uint64_t n, double theta) : n_(n), theta_(theta), zetan_(0) {
  for (std::uint64_t i = 1; i <= n_; ++i) {
    zetan_ += 1.0 / std::pow(static_cast<double>(i), theta_);
  }
  const double zeta2 = 1.0 + std::pow(0.5, theta_);
  alpha_ = 1.0 / (1.0 - theta_);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
         (1.0 - zeta2 / zetan_);
}

std::uint64_t Zipf::sample(double u) const {
  const double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
  const auto rank = static_cast<std::uint64_t>(
      static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return rank < n_ ? rank : n_ - 1;
}

std::vector<ScheduledOp> make_schedule(std::uint64_t seed, const ScheduleSpec& spec) {
  // Start from a hash of the seed: splitmix64 seeded with s + 1 replays the
  // stream of s shifted by one draw.
  Rng rng(Rng(seed).next());
  const bool zipf = spec.keys > 0 && spec.zipf_theta > 0;
  const Zipf zipf_keys(zipf ? spec.keys : 2, zipf ? spec.zipf_theta : 0.5);
  const auto end_ns = static_cast<std::int64_t>(spec.seconds * 1e9);
  std::vector<ScheduledOp> ops;
  ops.reserve(static_cast<std::size_t>(spec.rate_per_s * spec.seconds * 1.1) + 16);
  double t_ns = 0;
  while (true) {
    t_ns += -std::log(1.0 - rng.uniform()) / spec.rate_per_s * 1e9;
    if (t_ns >= static_cast<double>(end_ns)) break;
    ScheduledOp op;
    op.due_ns = static_cast<std::int64_t>(t_ns);
    op.pick = static_cast<std::uint32_t>(rng.below(spec.picks));
    if (spec.keys > 0) {
      op.kind = rng.uniform() < spec.put_share ? OpKind::Put : OpKind::Get;
      op.key = static_cast<std::uint32_t>(zipf ? zipf_keys.sample(rng.uniform())
                                               : rng.below(spec.keys));
    }
    ops.push_back(op);
  }
  return ops;
}

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const double n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n - 1e-9));
  if (rank < 1) rank = 1;
  if (rank > sorted.size()) rank = sorted.size();
  return sorted[rank - 1];
}

double supported_percentile(std::size_t samples) {
  double best = 0;
  for (const double p : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    if (static_cast<double>(samples) * (100.0 - p) / 100.0 >= 10.0 - 1e-9) best = p;
  }
  return best;
}

double sliced_percentile(const std::vector<const std::vector<LatencySample>*>& trials,
                         double window_s, double p) {
  std::vector<double> per_slice;
  std::vector<double> pooled;
  for (const std::vector<LatencySample>* samples : trials) {
    if (samples->size() < kMinSliceSamples) {
      for (const LatencySample& s : *samples) pooled.push_back(s.latency_us);
      continue;
    }
    const std::size_t slices = std::max<std::size_t>(
        1, std::min(static_cast<std::size_t>(window_s), samples->size() / kMinSliceSamples));
    const double slice_us = window_s * 1e6 / static_cast<double>(slices);
    std::vector<std::vector<double>> by_slice(slices);
    for (const LatencySample& s : *samples) {
      const auto i = static_cast<std::size_t>(static_cast<double>(s.due_us) / slice_us);
      by_slice[std::min(i, slices - 1)].push_back(s.latency_us);
    }
    for (auto& v : by_slice) {
      if (v.empty()) continue;
      std::sort(v.begin(), v.end());
      per_slice.push_back(percentile(v, p));
    }
  }
  if (!pooled.empty()) {
    std::sort(pooled.begin(), pooled.end());
    per_slice.push_back(percentile(pooled, p));
  }
  return median(per_slice);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

std::string format_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

namespace {

std::string quote(const std::string& s) {
  std::string out = "\"";
  evs::obs::JsonWriter::escape_into(out, s);
  return out + "\"";
}

}  // namespace

JsonObject& JsonObject::num(const std::string& key, double value) {
  fields_.emplace_back(key, format_number(value));
  return *this;
}

JsonObject& JsonObject::str(const std::string& key, const std::string& value) {
  fields_.emplace_back(key, quote(value));
  return *this;
}

JsonObject& JsonObject::raw(const std::string& key, const std::string& json) {
  fields_.emplace_back(key, json);
  return *this;
}

std::string JsonObject::dump() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += quote(fields_[i].first) + ": " + fields_[i].second;
  }
  return out + "}";
}

}  // namespace e2e
