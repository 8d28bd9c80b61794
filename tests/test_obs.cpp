// Observability-substrate tests: counter/gauge semantics, histogram
// bucket-boundary placement and quantile estimates, the deterministic
// JSON snapshot shape, the trace ring's wraparound/drop accounting,
// Span/HPCGPT_TRACE gating and the Perfetto/Prometheus/folded exporters.

#include <gtest/gtest.h>

#include <array>
#include <cctype>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "hpcgpt/json/json.hpp"
#include "hpcgpt/obs/export.hpp"
#include "hpcgpt/obs/metrics.hpp"
#include "hpcgpt/obs/trace.hpp"

namespace {

using namespace hpcgpt;

TEST(Metrics, CounterAccumulatesAndResets) {
  obs::Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Metrics, GaugeTracksPeak) {
  obs::Gauge g;
  g.set(3);
  g.set(7);
  g.set(2);
  EXPECT_EQ(g.value(), 2);
  EXPECT_EQ(g.max_value(), 7);
  g.reset();
  EXPECT_EQ(g.max_value(), 0);
}

TEST(Metrics, GaugeResetPeakRearmsToCurrentValue) {
  // reset_peak() re-arms the high-water mark to the live value without
  // touching it — per-scrape-window peaks for long-running servers.
  obs::Gauge g;
  g.set(9);
  g.set(4);
  EXPECT_EQ(g.max_value(), 9);
  g.reset_peak();
  EXPECT_EQ(g.value(), 4);
  EXPECT_EQ(g.max_value(), 4);
  g.set(6);
  EXPECT_EQ(g.max_value(), 6);
  g.set(1);
  g.reset_peak();
  EXPECT_EQ(g.max_value(), 1);
}

TEST(Metrics, HistogramBucketBoundariesAreInclusiveUpperBounds) {
  // Bucket i counts v <= bounds[i] (first matching bound): the boundary
  // value itself lands in its own bucket, just above it spills to the
  // next, and anything past the last bound lands in the overflow bucket.
  obs::Histogram h({1.0, 2.0, 5.0});
  h.observe(0.5);   // bucket 0
  h.observe(1.0);   // bucket 0 (boundary is inclusive)
  h.observe(1.001); // bucket 1
  h.observe(2.0);   // bucket 1
  h.observe(5.0);   // bucket 2
  h.observe(7.5);   // overflow
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 2u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 1u);  // overflow bucket
  EXPECT_EQ(h.count(), 6u);
  EXPECT_NEAR(h.sum(), 17.001, 1e-9);
  EXPECT_NEAR(h.mean(), 17.001 / 6.0, 1e-9);
}

TEST(Metrics, HistogramRejectsUnsortedBounds) {
  EXPECT_THROW(obs::Histogram({2.0, 1.0}), Error);
}

TEST(Metrics, HistogramValidatesBoundsStructurally) {
  // Strictly ascending is the contract: duplicates would make a bucket
  // unreachable, non-finite edges would poison every quantile.
  EXPECT_THROW(obs::Histogram({1.0, 1.0, 2.0}), InvalidArgument);
  EXPECT_THROW(
      obs::Histogram({1.0, std::numeric_limits<double>::infinity()}),
      InvalidArgument);
  EXPECT_THROW(
      obs::Histogram({std::numeric_limits<double>::quiet_NaN(), 1.0}),
      InvalidArgument);
  try {
    obs::Histogram h({3.0, 2.0});
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    // The diagnostic names the offending edge and its value.
    EXPECT_NE(std::string(e.what()).find("strictly ascending"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("2"), std::string::npos);
  }
  EXPECT_NO_THROW(obs::Histogram({1.0, 2.0, 5.0}));
}

TEST(Metrics, HistogramQuantilesInterpolateWithinBuckets) {
  obs::Histogram h({10.0, 20.0, 40.0});
  // 10 observations in (0,10], 10 in (10,20]: the CDF is piecewise
  // linear with a knee at every bucket edge.
  for (int i = 0; i < 10; ++i) h.observe(5.0);
  for (int i = 0; i < 10; ++i) h.observe(15.0);
  // p50: rank 10 of 20 is exactly the top of bucket 0.
  EXPECT_NEAR(h.quantile(0.50), 10.0, 1e-9);
  // p95: rank 19 is 9/10 through bucket 1 → 10 + 0.9*10.
  EXPECT_NEAR(h.quantile(0.95), 19.0, 1e-9);
  // p25: rank 5 is halfway through bucket 0 (lower edge 0).
  EXPECT_NEAR(h.quantile(0.25), 5.0, 1e-9);
}

TEST(Metrics, HistogramQuantileOverflowClampsToLastBound) {
  obs::Histogram h({1.0, 2.0});
  h.observe(0.5);
  h.observe(100.0);  // overflow bucket: unbounded above
  EXPECT_NEAR(h.quantile(0.99), 2.0, 1e-9);
  obs::Histogram empty({1.0, 2.0});
  EXPECT_EQ(empty.quantile(0.5), 0.0);
}

TEST(Metrics, DefaultLatencyBoundsAreSortedAndWide) {
  const auto bounds = obs::default_latency_bounds();
  ASSERT_FALSE(bounds.empty());
  EXPECT_DOUBLE_EQ(bounds.front(), 1e-6);
  EXPECT_DOUBLE_EQ(bounds.back(), 10.0);
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
  }
}

TEST(Metrics, RegistrySnapshotJsonIsDeterministic) {
  // Golden snapshot: sorted keys plus integer-valued numbers printed as
  // integers make the compact dump byte-stable, so downstream tooling
  // (obs dump) can rely on the exact shape.
  obs::MetricsRegistry registry;
  registry.counter("req.total").add(3);
  obs::Gauge& depth = registry.gauge("queue.depth");
  depth.set(2);
  depth.set(1);
  obs::Histogram& lat = registry.histogram("lat", std::array<double, 2>{1.0, 2.0});
  lat.observe(1.0);
  lat.observe(3.0);

  const std::string dump = json::Value(registry.snapshot()).dump();
  EXPECT_EQ(dump,
            "{\"counters\":{\"req.total\":3},"
            "\"gauges\":{\"queue.depth\":{\"max\":2,\"value\":1}},"
            "\"histograms\":{\"lat\":{"
            "\"buckets\":[{\"count\":1,\"le\":1},{\"count\":0,\"le\":2},"
            "{\"count\":1,\"le\":\"inf\"}],"
            "\"count\":2,\"mean\":2,\"p50\":1,\"p95\":2,\"p99\":2,"
            "\"sum\":4}}}");
}

TEST(Metrics, RegistryResetKeepsReferencesValid) {
  obs::MetricsRegistry registry;
  obs::Counter& c = registry.counter("x");
  obs::Histogram& h = registry.histogram("y");
  c.add(5);
  h.observe(0.5);
  registry.reset_values();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.count(), 0u);
  c.add(1);  // cached references survive a reset
  EXPECT_EQ(registry.counter("x").value(), 1u);
}

TEST(Metrics, RegistryIsThreadSafeUnderConcurrentUse) {
  obs::MetricsRegistry registry;
  constexpr int kThreads = 4;
  constexpr int kAdds = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      obs::Counter& c = registry.counter("shared");
      obs::Histogram& h = registry.histogram("shared.lat");
      for (int i = 0; i < kAdds; ++i) {
        c.add(1);
        h.observe(1e-5);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(registry.counter("shared").value(),
            static_cast<std::uint64_t>(kThreads * kAdds));
  EXPECT_EQ(registry.histogram("shared.lat").count(),
            static_cast<std::uint64_t>(kThreads * kAdds));
}

TEST(Trace, RingBufferWrapsKeepingNewestEvents) {
  obs::TraceSink sink(/*capacity=*/4);
  sink.enable(true);
  for (int i = 0; i < 6; ++i) {
    sink.record({.name = std::string("e") + std::to_string(i),
                 .start_seconds = static_cast<double>(i),
                 .duration_seconds = 0.5});
  }
  EXPECT_EQ(sink.total_recorded(), 6u);
  const std::vector<obs::TraceEvent> events = sink.events();
  ASSERT_EQ(events.size(), 4u);  // ring capacity, oldest two overwritten
  EXPECT_EQ(events.front().name, "e2");
  EXPECT_EQ(events.back().name, "e5");
  // Oldest-first ordering across the wrap point.
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LT(events[i - 1].start_seconds, events[i].start_seconds);
  }
  sink.clear();
  EXPECT_TRUE(sink.events().empty());
  EXPECT_EQ(sink.total_recorded(), 0u);
}

TEST(Trace, SpanRecordsOnlyWhileSinkEnabled) {
  obs::TraceSink sink(8);
  { obs::Span span("disabled", sink); }
  EXPECT_EQ(sink.total_recorded(), 0u);
  sink.enable(true);
  { obs::Span span("enabled", sink); }
  EXPECT_EQ(sink.total_recorded(), 1u);
  const auto events = sink.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "enabled");
  EXPECT_GE(events[0].duration_seconds, 0.0);
}

TEST(Trace, MacroCompilesAndUsesGlobalSink) {
  // HPCGPT_TRACE targets the global sink; when the build compiles spans
  // out (HPCGPT_OBS_DISABLED), the macro must still be syntactically
  // transparent and simply record nothing.
  obs::TraceSink& sink = obs::TraceSink::global();
  sink.clear();
  sink.enable(true);
  { HPCGPT_TRACE("macro.test"); }
  sink.enable(false);
#if defined(HPCGPT_OBS_DISABLED)
  EXPECT_EQ(sink.total_recorded(), 0u);
#else
  EXPECT_EQ(sink.total_recorded(), 1u);
  EXPECT_EQ(sink.events().at(0).name, "macro.test");
#endif
  sink.clear();
}

TEST(Trace, WraparoundIsCountedAsDropped) {
  obs::TraceSink sink(/*capacity=*/3);
  sink.enable(true);
  obs::Counter& dropped_counter =
      obs::MetricsRegistry::global().counter("obs.trace.dropped");
  const std::uint64_t counter_before = dropped_counter.value();
  for (int i = 0; i < 5; ++i) {
    sink.record({.name = std::string("e") + std::to_string(i),
                 .start_seconds = static_cast<double>(i),
                 .duration_seconds = 0.1});
  }
  EXPECT_EQ(sink.dropped_count(), 2u);
  EXPECT_EQ(sink.total_recorded(), 5u);
  EXPECT_EQ(sink.events().size(), 3u);
  EXPECT_EQ(sink.total_recorded() - sink.dropped_count(),
            sink.events().size());
  // The process-wide counter mirrors drops from every sink.
  EXPECT_EQ(dropped_counter.value() - counter_before, 2u);
  sink.clear();
  EXPECT_EQ(sink.dropped_count(), 0u);
}

TEST(Trace, ToJsonEmitsChromeTraceLikeFields) {
  obs::TraceSink sink(4);
  sink.enable(true);
  sink.record({.name = "phase", .start_seconds = 0.001,
               .duration_seconds = 0.002});
  const json::Value json = sink.to_json();
  ASSERT_TRUE(json.is_array());
  ASSERT_EQ(json.as_array().size(), 1u);
  const json::Value& event = json.as_array()[0];
  EXPECT_EQ(event.at("name").as_string(), "phase");
  EXPECT_NEAR(event.at("ts_us").as_number(), 1000.0, 1e-9);
  EXPECT_NEAR(event.at("dur_us").as_number(), 2000.0, 1e-9);
  EXPECT_GE(event.at("tid").as_int(), 0);
}

obs::TraceEvent make_event(const char* name, double start, double dur,
                           std::uint64_t trace, std::uint64_t span,
                           std::uint64_t parent) {
  obs::TraceEvent e;
  e.name = name;
  e.start_seconds = start;
  e.duration_seconds = dur;
  e.trace_id = trace;
  e.span_id = span;
  e.parent_id = parent;
  return e;
}

TEST(Export, PerfettoTraceHasMetadataAndCompleteEvents) {
  obs::TraceSink sink(8);
  sink.enable(true);
  sink.record(make_event("root", 0.001, 0.004, 7, 10, 0));
  sink.record(make_event("child", 0.002, 0.001, 7, 11, 10));

  const json::Value trace = obs::perfetto_trace(sink, "test-proc", 42);
  const json::Object& root = trace.as_object();
  EXPECT_EQ(root.at("displayTimeUnit").as_string(), "ms");
  EXPECT_EQ(root.at("otherData").at("dropped_events").as_int(), 0);
  EXPECT_EQ(root.at("otherData").at("total_recorded").as_int(), 2);

  const json::Array& events = root.at("traceEvents").as_array();
  std::size_t metadata = 0, complete = 0;
  for (const json::Value& e : events) {
    const std::string ph = e.at("ph").as_string();
    if (ph == "M") {
      ++metadata;
      continue;
    }
    ASSERT_EQ(ph, "X");
    ++complete;
    EXPECT_EQ(e.at("pid").as_int(), 42);
    if (e.at("name").as_string() == "child") {
      EXPECT_NEAR(e.at("ts").as_number(), 2000.0, 1e-6);
      EXPECT_NEAR(e.at("dur").as_number(), 1000.0, 1e-6);
      EXPECT_EQ(e.at("args").at("trace_id").as_int(), 7);
      EXPECT_EQ(e.at("args").at("parent_id").as_int(), 10);
    }
  }
  EXPECT_GE(metadata, 2u);  // process_name + at least one thread_name
  EXPECT_EQ(complete, 2u);
}

TEST(Export, PrometheusTextExposesAllThreeMetricKinds) {
  obs::MetricsRegistry registry;
  registry.counter("req.total").add(3);
  registry.gauge("queue.depth").set(5);
  obs::Histogram& lat =
      registry.histogram("lat.s", std::array<double, 2>{0.1, 1.0});
  lat.observe(0.05);
  lat.observe(0.5);
  lat.observe(9.0);

  const std::string text = obs::prometheus_text(registry);
  // Names are sanitized ('.' → '_'); buckets are cumulative with +Inf.
  EXPECT_NE(text.find("# TYPE req_total counter\nreq_total 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("queue_depth 5\n"), std::string::npos);
  EXPECT_NE(text.find("queue_depth_peak 5\n"), std::string::npos);
  EXPECT_NE(text.find("lat_s_bucket{le=\"0.1\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("lat_s_bucket{le=\"1\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("lat_s_bucket{le=\"+Inf\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("lat_s_count 3\n"), std::string::npos);
}

TEST(Export, PrometheusTextFollowsExpositionLineFormat) {
  // Strict line-format check over the whole exposition: every line is a
  // # HELP, a # TYPE, or a sample; each family announces HELP then TYPE
  // immediately before its samples; names are sanitized to the
  // [a-zA-Z_][a-zA-Z0-9_]* grammar; histogram buckets are cumulative,
  // end at +Inf, and the +Inf bucket equals _count.
  obs::MetricsRegistry registry;
  registry.counter("serve.requests.completed").add(7);
  registry.gauge("serve.queue.depth").set(3);
  obs::Histogram& lat = registry.histogram(
      "serve.ttft.seconds", std::array<double, 3>{0.01, 0.1, 1.0});
  lat.observe(0.005);
  lat.observe(0.05);
  lat.observe(0.5);
  lat.observe(5.0);

  const std::string text = obs::prometheus_text(registry);
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');  // every line newline-terminated

  const auto is_name = [](const std::string& s) {
    if (s.empty()) return false;
    if (!(std::isalpha(static_cast<unsigned char>(s[0])) || s[0] == '_')) {
      return false;
    }
    for (const char c : s) {
      if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_')) {
        return false;
      }
    }
    return true;
  };

  std::istringstream lines(text);
  std::string line;
  std::string pending_help;   // family announced by # HELP, awaiting TYPE
  std::string current_family; // family whose samples may follow
  std::string current_type;
  double last_bucket = 0.0;
  bool saw_inf_bucket = false;
  std::size_t samples = 0;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    std::istringstream fields(line);
    if (line.rfind("# ", 0) == 0) {
      std::string hash, keyword, name;
      fields >> hash >> keyword >> name;
      ASSERT_TRUE(is_name(name)) << line;
      if (keyword == "HELP") {
        pending_help = name;
        std::string rest;
        std::getline(fields, rest);
        EXPECT_FALSE(rest.empty()) << "HELP without text: " << line;
      } else {
        ASSERT_EQ(keyword, "TYPE") << line;
        // TYPE directly follows the HELP of the same family.
        EXPECT_EQ(name, pending_help) << line;
        std::string type;
        fields >> type;
        EXPECT_TRUE(type == "counter" || type == "gauge" ||
                    type == "histogram")
            << line;
        current_family = name;
        current_type = type;
        last_bucket = 0.0;
        saw_inf_bucket = false;
      }
      continue;
    }
    // Sample line: <name>[{le="..."}] <value>
    std::string name_and_labels, value_text;
    fields >> name_and_labels >> value_text;
    ASSERT_FALSE(value_text.empty()) << line;
    EXPECT_NO_THROW(std::stod(value_text)) << line;
    std::string name = name_and_labels;
    const std::size_t brace = name_and_labels.find('{');
    if (brace != std::string::npos) {
      name = name_and_labels.substr(0, brace);
      ASSERT_EQ(name_and_labels.back(), '}') << line;
    }
    ASSERT_TRUE(is_name(name)) << line;
    ASSERT_FALSE(current_family.empty()) << "sample before any TYPE: "
                                         << line;
    // Histogram series carry the family name plus a reserved suffix.
    if (current_type == "histogram") {
      ASSERT_TRUE(name.rfind(current_family, 0) == 0) << line;
      const std::string suffix = name.substr(current_family.size());
      EXPECT_TRUE(suffix == "_bucket" || suffix == "_sum" ||
                  suffix == "_count")
          << line;
      if (suffix == "_bucket") {
        const std::size_t le = name_and_labels.find("{le=\"");
        ASSERT_NE(le, std::string::npos) << line;
        const std::string edge = name_and_labels.substr(
            le + 5, name_and_labels.size() - le - 5 - 2);
        const double count = std::stod(value_text);
        EXPECT_GE(count, last_bucket) << "non-cumulative bucket: " << line;
        last_bucket = count;
        if (edge == "+Inf") saw_inf_bucket = true;
      }
      if (suffix == "_count") {
        EXPECT_TRUE(saw_inf_bucket) << "histogram without +Inf bucket";
        EXPECT_DOUBLE_EQ(std::stod(value_text), last_bucket)
            << "+Inf bucket != _count";
      }
    } else {
      // Counter/gauge samples: the family name or its _peak companion.
      EXPECT_TRUE(name == current_family) << line;
    }
    ++samples;
  }
  EXPECT_GE(samples, 9u);  // 1 counter + 2 gauge + (4+2) histogram series
  EXPECT_TRUE(saw_inf_bucket);
}

TEST(Export, PrometheusTextEmitsHelpBeforeEveryFamily) {
  obs::MetricsRegistry registry;
  registry.counter("a.b").add(1);
  registry.gauge("q.depth").set(2);
  const std::string text = obs::prometheus_text(registry);
  // HELP carries the original dotted name the sanitizer destroyed, and
  // the gauge's _peak companion is announced as its own family.
  EXPECT_NE(text.find("# HELP a_b hpcgpt metric a.b\n# TYPE a_b counter\n"),
            std::string::npos);
  EXPECT_NE(
      text.find("# HELP q_depth hpcgpt metric q.depth\n"
                "# TYPE q_depth gauge\nq_depth 2\n"),
      std::string::npos);
  EXPECT_NE(text.find("# HELP q_depth_peak hpcgpt metric q.depth "
                      "(high-water mark)\n# TYPE q_depth_peak gauge\n"),
            std::string::npos);
}

TEST(Trace, DroppedCounterIsRegisteredBeforeAnyDrop) {
  // Constructing a sink eagerly touches obs.trace.dropped, so scrapers
  // see the series at 0 instead of having to special-case its absence.
  obs::TraceSink sink(/*capacity=*/2);
  const json::Object snapshot = obs::MetricsRegistry::global().snapshot();
  const json::Object& counters = snapshot.at("counters").as_object();
  ASSERT_NE(counters.find("obs.trace.dropped"), counters.end());
}

TEST(Export, FoldedStacksChargeSelfTimeAndJoinPaths) {
  // root (10ms) has two children (3ms + 2ms): root's folded weight is
  // its self time, 5ms; grandchild nests two levels deep.
  std::vector<obs::TraceEvent> events;
  events.push_back(make_event("root", 0.0, 0.010, 1, 1, 0));
  events.push_back(make_event("childA", 0.001, 0.003, 1, 2, 1));
  events.push_back(make_event("childB", 0.005, 0.002, 1, 3, 1));
  events.push_back(make_event("leaf", 0.0015, 0.001, 1, 4, 2));

  const std::string folded = obs::folded_stacks(events);
  EXPECT_NE(folded.find("root 5000\n"), std::string::npos);
  EXPECT_NE(folded.find("root;childA 2000\n"), std::string::npos);
  EXPECT_NE(folded.find("root;childB 2000\n"), std::string::npos);
  EXPECT_NE(folded.find("root;childA;leaf 1000\n"), std::string::npos);
}

TEST(Export, FoldedStacksAggregateRepeatedPathsAndOrphans) {
  std::vector<obs::TraceEvent> events;
  // Two invocations of the same leaf under the same-named parent path
  // aggregate into one line; a span whose parent was evicted from the
  // ring roots its own stack.
  events.push_back(make_event("work", 0.0, 0.004, 1, 1, 0));
  events.push_back(make_event("gemm", 0.000, 0.001, 1, 2, 1));
  events.push_back(make_event("gemm", 0.002, 0.001, 1, 3, 1));
  events.push_back(make_event("orphan", 0.1, 0.002, 9, 50, 999));

  const std::string folded = obs::folded_stacks(events);
  EXPECT_NE(folded.find("work;gemm 2000\n"), std::string::npos);
  EXPECT_NE(folded.find("work 2000\n"), std::string::npos);
  EXPECT_NE(folded.find("orphan 2000\n"), std::string::npos);
}

}  // namespace
