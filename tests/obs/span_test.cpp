// Span tracing tests: SpanSink unit behaviour, then the nesting/closure
// invariants of the protocol instrumentation over the paper's Figure 6
// scenario (partition during flight, transitional install, remerge).
#include "obs/span.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "obs/json.hpp"
#include "testkit/cluster.hpp"

namespace evs::obs {
namespace {

constexpr ProcessId kP1{1};

TEST(SpanSink, BeginEndLifecycle) {
  SpanSink sink;
  const SpanId a = sink.begin(kP1, "outer", 100);
  ASSERT_NE(a, 0u);
  const SpanId b = sink.begin(kP1, "inner", 150, a);
  EXPECT_EQ(sink.open_count(), 2u);

  sink.end(b, 200);
  sink.end(a, 300);
  EXPECT_EQ(sink.open_count(), 0u);

  const Span* inner = sink.find(b);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->parent, a);
  EXPECT_TRUE(inner->closed);
  EXPECT_EQ(inner->duration_us(), 50u);
  EXPECT_EQ(sink.find(a)->duration_us(), 200u);
}

TEST(SpanSink, EndIsIdempotentAndIgnoresZero) {
  SpanSink sink;
  const SpanId a = sink.begin(kP1, "s", 10);
  sink.end(a, 20);
  sink.end(a, 99);  // second end must not move end_us
  sink.end(0, 50);  // "no span" id is a no-op
  EXPECT_EQ(sink.find(a)->end_us, 20u);
  EXPECT_EQ(sink.open_count(), 0u);
}

TEST(SpanSink, AttrsAccumulateInOrder) {
  SpanSink sink;
  const SpanId a = sink.begin(kP1, "s", 0);
  sink.attr(a, "ring", "R7");
  sink.attr(a, "members", "3");
  sink.attr(0, "ignored", "x");
  const Span* s = sink.find(a);
  ASSERT_EQ(s->attrs.size(), 2u);
  EXPECT_EQ(s->attrs[0], (std::pair<std::string, std::string>{"ring", "R7"}));
  EXPECT_EQ(s->attrs[1], (std::pair<std::string, std::string>{"members", "3"}));
}

TEST(SpanSink, InstantIsClosedAtCreation) {
  SpanSink sink;
  const SpanId a = sink.instant(kP1, "mark", 42);
  const Span* s = sink.find(a);
  ASSERT_NE(s, nullptr);
  EXPECT_TRUE(s->closed);
  EXPECT_EQ(s->start_us, 42u);
  EXPECT_EQ(s->end_us, 42u);
  EXPECT_EQ(sink.open_count(), 0u);
}

TEST(SpanSink, CapacityCapDropsAndCounts) {
  SpanSink::Options opts;
  opts.max_spans = 2;
  SpanSink sink(opts);
  EXPECT_NE(sink.begin(kP1, "a", 0), 0u);
  EXPECT_NE(sink.begin(kP1, "b", 0), 0u);
  EXPECT_EQ(sink.begin(kP1, "c", 0), 0u);  // at capacity: dropped
  EXPECT_EQ(sink.instant(kP1, "d", 0), 0u);
  EXPECT_EQ(sink.dropped(), 2u);
  EXPECT_EQ(sink.spans().size(), 2u);
}

TEST(SpanSink, ChromeTraceAndTimelineExports) {
  SpanSink sink;
  const SpanId a = sink.begin(kP1, "gather", 1'000);
  sink.attr(a, "episode", "1");
  sink.end(a, 3'000);
  sink.begin(kP1, "left.open", 5'000);

  const auto doc = JsonValue::parse(sink.chrome_trace_json());
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(doc->is_array());
  ASSERT_EQ(doc->array.size(), 2u);
  const JsonValue& ev = doc->array[0];
  EXPECT_EQ(ev.find("name")->string, "gather");
  EXPECT_EQ(ev.find("ph")->string, "X");
  EXPECT_EQ(ev.find("ts")->number, 1'000);
  EXPECT_EQ(ev.find("dur")->number, 2'000);

  const std::string tl = sink.timeline();
  EXPECT_NE(tl.find("gather"), std::string::npos);
  EXPECT_NE(tl.find("left.open"), std::string::npos);
}

// --- Protocol instrumentation invariants over a Fig. 6 run ---

struct Fig6Trace {
  Cluster cluster;
  Fig6Trace() : cluster(options()) {
    EXPECT_TRUE(cluster.await_stable());
    // Messages in flight when the partition hits, as in the paper's
    // Figure 6: some survive into the transitional configuration.
    for (int i = 0; i < 6; ++i) {
      cluster.node(static_cast<std::size_t>(i) % 5)
          .send(Service::Agreed, {static_cast<std::uint8_t>(i)})
          .value();
    }
    cluster.partition({{0, 1, 2}, {3, 4}});
    EXPECT_TRUE(cluster.await_stable());
    cluster.node(0).send(Service::Agreed, {100}).value();
    cluster.node(3).send(Service::Agreed, {101}).value();
    cluster.heal();
    EXPECT_TRUE(cluster.await_quiesce());
  }

  static Cluster::Options options() {
    Cluster::Options opts;
    opts.num_processes = 5;
    opts.seed = 66;
    opts.enable_spans = true;
    return opts;
  }
};

TEST(ProtocolSpans, EpisodeSpansCloseOnceTheClusterIsStable) {
  Fig6Trace t;
  const SpanSink* sink = t.cluster.spans();
  ASSERT_NE(sink, nullptr);
  ASSERT_FALSE(sink->spans().empty());

  std::size_t gathers = 0, recoveries = 0, exchanges = 0, rebroadcasts = 0;
  for (const Span& s : sink->spans()) {
    if (s.name == "gather") ++gathers;
    if (s.name == "recovery") ++recoveries;
    if (s.name == "recovery.exchange") ++exchanges;
    if (s.name == "recovery.rebroadcast") ++rebroadcasts;
    // Every episode span must be closed once the cluster has quiesced; only
    // a token rotation (the token is in flight) or a token hold (the idle
    // ring's representative has it) may legitimately be open.
    if (s.name != "token.rotation" && s.name != "token.hold") {
      EXPECT_TRUE(s.closed) << s.name << " #" << s.id << " left open";
      EXPECT_GE(s.end_us, s.start_us) << s.name;
    }
  }
  // Initial formation + partition + remerge: every process gathers and
  // recovers repeatedly, and each recovery walks exchange then rebroadcast.
  EXPECT_GE(gathers, 5u * 3u);
  EXPECT_GE(recoveries, 5u * 3u);
  EXPECT_GE(exchanges, recoveries);  // a regather can abandon an exchange
  EXPECT_GT(rebroadcasts, 0u);
}

TEST(ProtocolSpans, RecoveryStepsNestUnderTheirRecoverySpan) {
  Fig6Trace t;
  const SpanSink* sink = t.cluster.spans();
  for (const Span& s : sink->spans()) {
    if (s.name == "recovery.exchange" || s.name == "recovery.rebroadcast") {
      ASSERT_NE(s.parent, 0u) << s.name << " must have a parent";
      const Span* parent = sink->find(s.parent);
      ASSERT_NE(parent, nullptr);
      EXPECT_EQ(parent->name, "recovery");
      EXPECT_EQ(parent->process.value, s.process.value);
      EXPECT_GE(s.start_us, parent->start_us);
      if (s.closed && parent->closed) {
        EXPECT_LE(s.end_us, parent->end_us);
      }
    } else if (s.name == "gather" || s.name == "recovery" ||
               s.name == "config.install" || s.name == "token.rotation") {
      EXPECT_EQ(s.parent, 0u) << s.name << " must be a root span";
    }
  }
}

TEST(ProtocolSpans, ConfigInstallInstantsCarryMembershipAttrs) {
  Fig6Trace t;
  const SpanSink* sink = t.cluster.spans();
  std::size_t installs = 0, transitional_installs = 0;
  for (const Span& s : sink->spans()) {
    if (s.name != "config.install") continue;
    ++installs;
    std::map<std::string, std::string> attrs(s.attrs.begin(), s.attrs.end());
    EXPECT_TRUE(attrs.count("ring")) << "install without ring id";
    EXPECT_TRUE(attrs.count("members"));
    ASSERT_TRUE(attrs.count("transitional"));
    if (attrs["transitional"] == "1") {
      ++transitional_installs;
      // A transitional install reports its delivery plan (Fig. 6's split of
      // regular vs transitional deliveries and discards).
      EXPECT_TRUE(attrs.count("regular_deliveries"));
      EXPECT_TRUE(attrs.count("trans_deliveries"));
      EXPECT_TRUE(attrs.count("discarded"));
    }
  }
  // Every process installs at formation, after the partition and after the
  // remerge; the latter two follow a transitional configuration.
  EXPECT_GE(installs, 5u * 3u);
  EXPECT_GE(transitional_installs, 5u * 2u);
}

TEST(ProtocolSpans, GatherSpansRecordTheirEpisodeAndOutcome) {
  Fig6Trace t;
  const SpanSink* sink = t.cluster.spans();
  bool saw_adopted_gather = false;
  for (const Span& s : sink->spans()) {
    if (s.name != "gather") continue;
    std::map<std::string, std::string> attrs(s.attrs.begin(), s.attrs.end());
    EXPECT_TRUE(attrs.count("episode"));
    // Gathers that adopted a proposal also record the resulting ring.
    if (attrs.count("ring")) {
      saw_adopted_gather = true;
      EXPECT_TRUE(attrs.count("members"));
    }
  }
  EXPECT_TRUE(saw_adopted_gather);
}

TEST(ProtocolSpans, ChromeTraceOfARealRunParses) {
  Fig6Trace t;
  const SpanSink* sink = t.cluster.spans();
  const auto doc = JsonValue::parse(sink->chrome_trace_json());
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(doc->is_array());
  EXPECT_EQ(doc->array.size(), sink->spans().size());
  EXPECT_FALSE(sink->timeline().empty());
}

TEST(ProtocolSpans, DisabledByDefaultMeansNoSink) {
  Cluster cluster;  // Options::enable_spans defaults to false
  EXPECT_EQ(cluster.spans(), nullptr);
  ASSERT_TRUE(cluster.await_stable());  // nodes run fine with a null sink
}

}  // namespace
}  // namespace evs::obs
