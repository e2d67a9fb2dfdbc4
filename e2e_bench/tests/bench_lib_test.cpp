// Unit tests for the socket-free parts of bench_e2e: percentile rules, the
// zipf sampler and the seeded op schedule.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "bench_lib.hpp"

namespace e2e {
namespace {

TEST(Percentile, NearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_EQ(percentile(v, 50), 50);
  EXPECT_EQ(percentile(v, 99), 99);
  EXPECT_EQ(percentile(v, 100), 100);
  EXPECT_EQ(percentile(v, 0.5), 1);
  EXPECT_EQ(percentile({7}, 99), 7);
  EXPECT_EQ(percentile({}, 50), 0);
  // Rank ceil(0.99 * 1000) = 990 exactly, not 991 from rounding error.
  std::vector<double> k(1000);
  for (int i = 0; i < 1000; ++i) k[i] = i + 1;
  EXPECT_EQ(percentile(k, 99), 990);
  EXPECT_EQ(percentile(k, 99.9), 999);
}

TEST(Percentile, HighestWithTenSamplesBeyond) {
  EXPECT_EQ(supported_percentile(0), 0);
  EXPECT_EQ(supported_percentile(19), 0);
  EXPECT_EQ(supported_percentile(20), 50);
  EXPECT_EQ(supported_percentile(99), 50);
  EXPECT_EQ(supported_percentile(100), 90);
  EXPECT_EQ(supported_percentile(999), 90);
  EXPECT_EQ(supported_percentile(1000), 99);
  EXPECT_EQ(supported_percentile(10'000), 99.9);
  EXPECT_EQ(supported_percentile(100'000), 99.99);
  EXPECT_EQ(supported_percentile(10'000'000), 99.99);
}

/// `n` samples spread evenly over `seconds`, latency from `latency(i)`.
template <typename Fn>
std::vector<LatencySample> trial(std::uint32_t n, std::uint32_t seconds, Fn latency) {
  std::vector<LatencySample> s;
  for (std::uint32_t i = 0; i < n; ++i) {
    s.push_back({static_cast<std::uint32_t>(std::uint64_t{i} * seconds * 1'000'000 / n),
                 static_cast<float>(latency(i))});
  }
  return s;
}

TEST(SlicedPercentile, OneStalledSecondDoesNotMoveTheResult) {
  // Ten one-second slices of 5000 samples: latencies 100..199 us, except in
  // second 4, where the host stalled and everything took 10 ms.
  const auto s = trial(50'000, 10, [](std::uint32_t i) {
    return i / 5000 == 4 ? 10'000 : 100 + i % 100;
  });
  // Per slice, rank ceil(0.99 * 5000) = 4950 holds 198; the whole window's
  // p99 would sit inside the stall.
  EXPECT_EQ(sliced_percentile({&s}, 10, 99), 198);
  EXPECT_EQ(sliced_percentile({&s}, 10, 50), 149);
  EXPECT_EQ(sliced_percentile({}, 10, 50), 0);
}

TEST(SlicedPercentile, SlicesKeepFiftySamplesBeyondTheirP99) {
  // 15000 samples over 10 s: three slices, not ten. Latency steps 1 -> 2 ->
  // 3 with the due time.
  const auto s = trial(15'000, 10, [](std::uint32_t i) { return 1 + i / 5000; });
  EXPECT_EQ(sliced_percentile({&s}, 10, 50), 2);
}

TEST(SlicedPercentile, TrialsTooSmallToSliceArePooled) {
  // No trial holds 5000 samples; pooled, the third trial's 3000 samples
  // outweigh the others' 1000 each, where a median of the trials would not.
  const auto a = trial(1000, 3, [](std::uint32_t) { return 5; });
  const auto b = trial(1000, 3, [](std::uint32_t) { return 7; });
  const auto c = trial(3000, 3, [](std::uint32_t) { return 9; });
  EXPECT_EQ(sliced_percentile({&a, &b, &c}, 3, 50), 9);
  // A trial large enough is sliced on its own: two slices reading 1 against
  // one pooled slice reading 9.
  const auto big = trial(10'000, 2, [](std::uint32_t) { return 1; });
  EXPECT_EQ(sliced_percentile({&big, &c}, 2, 50), 1);
}

TEST(Median, OddAndEvenCounts) {
  EXPECT_EQ(median({}), 0);
  EXPECT_EQ(median({3, 1, 2}), 2);
  // One stalled trial among four healthy ones: the median stays with the
  // healthy values.
  EXPECT_EQ(median({10, 11, 12, 13, 95}), 12);
  EXPECT_EQ(median({10, 11, 12, 13}), 11.5);
}

TEST(Zipf, TopKeyShareMatchesAnalyticValue) {
  const Zipf z(100'000, 0.99);
  Rng rng(42);
  const int draws = 400'000;
  int top = 0;
  for (int i = 0; i < draws; ++i) {
    const auto r = z.sample(rng.uniform());
    ASSERT_LT(r, 100'000u);
    if (r == 0) ++top;
  }
  // Rank 0 is drawn with probability 1 / zeta(n, theta); zeta(1e5, 0.99)
  // is about 12.8, so the hottest key takes about 7.8% of draws.
  double zeta = 0;
  for (int i = 1; i <= 100'000; ++i) zeta += 1.0 / std::pow(i, 0.99);
  const double p = 1.0 / zeta;
  EXPECT_GT(p, 0.07);
  EXPECT_LT(p, 0.09);
  const double sigma = std::sqrt(p * (1 - p) / draws);
  EXPECT_NEAR(static_cast<double>(top) / draws, p, 4 * sigma);
}

ScheduleSpec kv_spec() {
  ScheduleSpec s;
  s.rate_per_s = 8'000;
  s.seconds = 2;
  s.picks = 3;
  s.keys = 100'000;
  s.put_share = 0.5;
  s.zipf_theta = 0.99;
  return s;
}

TEST(Schedule, SameSeedSameOps) {
  const auto a = make_schedule(7, kv_spec());
  const auto b = make_schedule(7, kv_spec());
  EXPECT_EQ(a, b);
  EXPECT_NE(a, make_schedule(8, kv_spec()));
}

TEST(Schedule, SeedsOneGeneratorStepApartGiveUnrelatedOps) {
  // splitmix64 seeded with s + k * 0x9e37... replays seed s's draws k steps
  // late. A schedule must not inherit that: runs over such seeds would
  // measure one schedule shifted, not independent ones.
  constexpr std::uint64_t kStep = 0x9e3779b97f4a7c15ull;
  ScheduleSpec s;
  s.rate_per_s = 20'000;
  s.seconds = 0.5;
  s.picks = 5;
  const auto a = make_schedule(7 * kStep, s);
  for (const std::uint64_t other : {8 * kStep, 9 * kStep}) {
    const auto b = make_schedule(other, s);
    for (std::size_t shift = 0; shift <= 2; ++shift) {
      std::size_t same = 0;
      const std::size_t n = std::min(a.size() - shift, b.size());
      for (std::size_t i = 0; i < n; ++i) same += b[i].pick == a[i + shift].pick;
      // Unrelated picks agree one time in five.
      EXPECT_LT(static_cast<double>(same) / static_cast<double>(n), 0.3) << other << " " << shift;
    }
  }
}

TEST(Schedule, PoissonRateAndMix) {
  const auto ops = make_schedule(3, kv_spec());
  // 16k expected; a Poisson count's sigma is ~126.
  EXPECT_NEAR(static_cast<double>(ops.size()), 16'000, 600);
  std::size_t puts = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (i > 0) {
      EXPECT_GE(ops[i].due_ns, ops[i - 1].due_ns);
    }
    EXPECT_LT(ops[i].due_ns, 2'000'000'000);
    EXPECT_LT(ops[i].pick, 3u);
    EXPECT_NE(ops[i].kind, OpKind::Send);
    if (ops[i].kind == OpKind::Put) ++puts;
  }
  EXPECT_NEAR(static_cast<double>(puts) / static_cast<double>(ops.size()), 0.5, 0.02);
}

TEST(Schedule, RingOpsCarryNoKeys) {
  ScheduleSpec s;
  s.rate_per_s = 20'000;
  s.seconds = 0.5;
  s.picks = 5;
  for (const auto& op : make_schedule(1, s)) {
    EXPECT_EQ(op.kind, OpKind::Send);
    EXPECT_EQ(op.key, 0u);
    EXPECT_LT(op.pick, 5u);
  }
}

TEST(Json, NumbersKeepEveryDigit) {
  EXPECT_EQ(format_number(0.1), "0.1");
  EXPECT_EQ(format_number(123456789.125), "123456789.125");
  EXPECT_EQ(format_number(1000), "1000");
  JsonObject o;
  o.num("a", 1.5).str("b", "x\"y");
  EXPECT_EQ(o.dump(), "{\"a\": 1.5, \"b\": \"x\\\"y\"}");
}

}  // namespace
}  // namespace e2e
