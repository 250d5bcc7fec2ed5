// Tests for the telemetry layer: LatencyHistogram boundary behaviour
// (empty, q=0/q=1, single sample, min tracking), the TelemetryRegistry's
// Prometheus/JSON renderings, the tracer-stats collector, the
// enum-derived ServiceMetrics array sizes, and the journal's fsync
// histogram.

#include "obs/telemetry.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "obs/histogram.h"
#include "service/journal.h"
#include "service/metrics.h"
#include "service/update.h"
#include "util/status.h"

namespace relview {
namespace {

// ---------------------------------------------------------------------------
// LatencyHistogram

TEST(LatencyHistogramTest, EmptyHistogramReportsZeros) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min_nanos(), 0u);
  EXPECT_EQ(h.max_nanos(), 0u);
  EXPECT_EQ(h.QuantileNanos(0.0), 0u);
  EXPECT_EQ(h.QuantileNanos(0.5), 0u);
  EXPECT_EQ(h.QuantileNanos(1.0), 0u);
  EXPECT_DOUBLE_EQ(h.mean_nanos(), 0.0);
}

TEST(LatencyHistogramTest, SingleSampleIsEveryQuantile) {
  LatencyHistogram h;
  h.Record(777);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min_nanos(), 777u);
  EXPECT_EQ(h.max_nanos(), 777u);
  // Without the [min, max] clamp the log2 buckets would report the bucket
  // edge (1023), not the observed value.
  EXPECT_EQ(h.QuantileNanos(0.0), 777u);
  EXPECT_EQ(h.QuantileNanos(0.5), 777u);
  EXPECT_EQ(h.QuantileNanos(1.0), 777u);
}

TEST(LatencyHistogramTest, BoundaryQuantilesAreExactObservedValues) {
  LatencyHistogram h;
  h.Record(100);
  h.Record(5000);
  h.Record(90000);
  EXPECT_EQ(h.QuantileNanos(0.0), 100u);    // q=0 -> min
  EXPECT_EQ(h.QuantileNanos(1.0), 90000u);  // q=1 -> max
  // Out-of-range q clamps rather than walking off the bucket array.
  EXPECT_EQ(h.QuantileNanos(-3.0), 100u);
  EXPECT_EQ(h.QuantileNanos(7.0), 90000u);
  // Interior quantiles stay within the observed range.
  const uint64_t p50 = h.QuantileNanos(0.5);
  EXPECT_GE(p50, 100u);
  EXPECT_LE(p50, 90000u);
}

TEST(LatencyHistogramTest, MinTracksTheSmallestSampleEverRecorded) {
  LatencyHistogram h;
  h.Record(9000);
  EXPECT_EQ(h.min_nanos(), 9000u);
  h.Record(40);
  EXPECT_EQ(h.min_nanos(), 40u);
  h.Record(70000);
  EXPECT_EQ(h.min_nanos(), 40u);
  EXPECT_EQ(h.max_nanos(), 70000u);
}

TEST(LatencyHistogramTest, JsonCarriesMinAndBoundaries) {
  LatencyHistogram h;
  h.Record(256);
  const std::string json = h.ToJson();
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
  EXPECT_NE(json.find("\"min_ns\":256"), std::string::npos);
  EXPECT_NE(json.find("\"max_ns\":256"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Enum-derived ServiceMetrics sizes (satellite: no silently dropped
// counters when an enum grows — the static_asserts in metrics.h pin the
// sentinels; these tests pin the derived values).

TEST(ServiceMetricsSizesTest, CountersCoverEveryKindAndCode) {
  EXPECT_EQ(ServiceMetrics::kKinds,
            static_cast<int>(UpdateKind::kNumUpdateKinds));
  EXPECT_EQ(ServiceMetrics::kStatusCodes,
            static_cast<int>(StatusCode::kNumStatusCodes));
  // Every real enumerator is strictly below the sentinel.
  EXPECT_LT(static_cast<int>(UpdateKind::kReplace), ServiceMetrics::kKinds);
  EXPECT_LT(static_cast<int>(StatusCode::kInternal),
            ServiceMetrics::kStatusCodes);
  // Recording against the last real enumerators stays in bounds.
  ServiceMetrics m;
  m.RecordAccepted(UpdateKind::kReplace);
  m.RecordRejected(UpdateKind::kReplace, StatusCode::kInternal);
  EXPECT_EQ(m.accepted(UpdateKind::kReplace), 1u);
  EXPECT_EQ(m.rejected_by_code(StatusCode::kInternal), 1u);
}

// ---------------------------------------------------------------------------
// TelemetryRegistry

TEST(TelemetryRegistryTest, RendersPrometheusExposition) {
  TelemetryRegistry registry;
  registry.Register("test", [] {
    std::vector<MetricFamily> out;
    out.push_back(CounterFamily("demo_total", "A demo counter", 3));
    MetricFamily labeled = GaugeFamily("demo_gauge", "A labeled gauge", 0);
    labeled.samples.clear();
    labeled.samples.push_back({Label("kind", "insert"), 1.5});
    labeled.samples.push_back({Label("kind", "weird\"value\\x"), 2});
    out.push_back(std::move(labeled));
    return out;
  });
  const std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("# HELP demo_total A demo counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE demo_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("demo_total 3\n"), std::string::npos);
  EXPECT_NE(text.find("demo_gauge{kind=\"insert\"} 1.5\n"),
            std::string::npos);
  // Label values escape quotes and backslashes.
  EXPECT_NE(text.find("demo_gauge{kind=\"weird\\\"value\\\\x\"} 2\n"),
            std::string::npos);
}

TEST(TelemetryRegistryTest, SanitizesMetricNames) {
  TelemetryRegistry registry;
  registry.Register("test", [] {
    std::vector<MetricFamily> out;
    out.push_back(CounterFamily("bad.name-with spaces", "sanitized", 1));
    out.push_back(CounterFamily("9starts_with_digit", "prefixed", 1));
    return out;
  });
  const std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("bad_name_with_spaces 1\n"), std::string::npos);
  EXPECT_NE(text.find("_9starts_with_digit 1\n"), std::string::npos);
  EXPECT_EQ(text.find("bad.name"), std::string::npos);
}

TEST(TelemetryRegistryTest, SummaryRendersQuantilesCountAndSum) {
  LatencyHistogram h;
  h.Record(1000);  // 1 µs
  h.Record(1000);
  TelemetryRegistry registry;
  registry.Register("test", [&h] {
    std::vector<MetricFamily> out;
    out.push_back(SummaryFamily("lat_seconds", "A summary", h));
    return out;
  });
  const std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("# TYPE lat_seconds summary\n"), std::string::npos);
  // One series per quantile plus the suffixed _count/_sum pair; values in
  // seconds (1000 ns = ~1e-06 s — don't pin the float's text).
  EXPECT_NE(text.find("lat_seconds{quantile=\"0\"} 1."), std::string::npos);
  EXPECT_NE(text.find("lat_seconds{quantile=\"1\"} 1."), std::string::npos);
  EXPECT_NE(text.find("lat_seconds_count 2\n"), std::string::npos);
  EXPECT_NE(text.find("lat_seconds_sum 2."), std::string::npos);
}

TEST(TelemetryRegistryTest, JsonSectionsRenderInRegistrationOrder) {
  TelemetryRegistry registry;
  registry.RegisterJson("alpha", [] { return std::string("{\"a\":1}"); });
  registry.RegisterJson("beta", [] { return std::string("[2,3]"); });
  EXPECT_EQ(registry.RenderJson(), "{\"alpha\":{\"a\":1},\"beta\":[2,3]}");
  // Re-registering replaces in place; unregistering removes.
  registry.RegisterJson("alpha", [] { return std::string("{\"a\":9}"); });
  EXPECT_EQ(registry.RenderJson(), "{\"alpha\":{\"a\":9},\"beta\":[2,3]}");
  registry.Unregister("alpha");
  EXPECT_EQ(registry.RenderJson(), "{\"beta\":[2,3]}");
}

TEST(TelemetryRegistryTest, TracerCollectorExportsAllCounters) {
  Tracer tracer(32);
  tracer.Enable(8);
  { Span s(tracer, "x"); }
  tracer.Disable();
  const std::vector<MetricFamily> families = CollectTracerStats(tracer);
  ASSERT_EQ(families.size(), 8u);
  EXPECT_EQ(families[0].name, "relview_tracer_enabled");
  EXPECT_EQ(families[1].samples[0].value, 8.0);  // sample_every
  const std::string json = TracerStatsJson(tracer);
  EXPECT_NE(json.find("\"sample_every\":8"), std::string::npos);
  EXPECT_NE(json.find("\"spans_recorded\":1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Journal fsync latency histogram

TEST(JournalFsyncTest, AppendRecordsFsyncLatency) {
  std::string path = testing::TempDir() + "/fsync_hist.journal";
  std::remove(path.c_str());
  auto journal = Journal::Open(path);
  ASSERT_TRUE(journal.ok());
  EXPECT_EQ(journal->fsync_latency()->count(), 0u);
  Tuple t(std::vector<Value>{Value::Const(1), Value::Const(2)});
  ASSERT_TRUE(journal->AppendUnsynced({ViewUpdate::Insert(t)}).ok());
  EXPECT_EQ(journal->fsync_latency()->count(), 0u);  // appends never fsync
  ASSERT_TRUE(journal->Sync().ok());
  EXPECT_EQ(journal->fsync_latency()->count(), 1u);
  // Group commit: one fsync covers every batch appended before it.
  ASSERT_TRUE(journal->AppendUnsynced({ViewUpdate::Delete(t)}).ok());
  ASSERT_TRUE(journal->AppendUnsynced({ViewUpdate::Insert(t)}).ok());
  ASSERT_TRUE(journal->Sync().ok());
  EXPECT_EQ(journal->fsync_latency()->count(), 2u);
  EXPECT_GT(journal->fsync_latency()->total_nanos(), 0u);
  // The histogram handle survives a move of the journal.
  auto held = journal->fsync_latency();
  Journal moved = std::move(*journal);
  ASSERT_TRUE(moved.AppendUnsynced({ViewUpdate::Insert(t)}).ok());
  ASSERT_TRUE(moved.Sync().ok());
  EXPECT_EQ(held->count(), 3u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace relview
