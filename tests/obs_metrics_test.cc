// Copyright 2026 The LearnRisk Authors
// Telemetry primitive tests: the LatencyHistogram's fixed bucket layout is
// exact where promised (values < 32, bucket bound round-trips, <= 1/32
// relative error above), quantiles and merges are bucket-exact, sharded
// counters sum exactly across threads, the ValueHistogram clamps and drops
// non-finite samples, the registry get-or-creates per (name, labels) with
// type-conflict detection, and both exporters emit well-formed output.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <thread>
#include <vector>

#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/registry.h"

namespace learnrisk {
namespace {

TEST(LatencyHistogramTest, SmallValuesAreExactSingletonBuckets) {
  for (uint64_t v = 0; v < 32; ++v) {
    const size_t index = LatencyHistogram::BucketIndex(v);
    EXPECT_EQ(index, v);
    EXPECT_EQ(LatencyHistogram::BucketLowerBound(index), v);
    EXPECT_EQ(LatencyHistogram::BucketUpperBound(index), v);
  }
}

TEST(LatencyHistogramTest, BucketIndexIsMonotoneAcrossBoundaries) {
  // Octave boundaries: the last exact bucket, the first sub-bucketed
  // octave, and a few powers of two where the layout switches shift.
  const uint64_t boundaries[] = {31,   32,   33,   63,       64,
                                 65,   127,  128,  1023,     1024,
                                 4095, 4096, 1u << 20,       (1u << 20) + 1};
  size_t prev = LatencyHistogram::BucketIndex(0);
  uint64_t prev_value = 0;
  for (uint64_t v : boundaries) {
    const size_t index = LatencyHistogram::BucketIndex(v);
    EXPECT_GE(index, prev) << "index regressed at value " << v;
    EXPECT_GE(LatencyHistogram::BucketUpperBound(index), v);
    EXPECT_LE(LatencyHistogram::BucketLowerBound(index), v);
    prev = index;
    prev_value = v;
  }
  (void)prev_value;
}

TEST(LatencyHistogramTest, BucketBoundsRoundTrip) {
  // Every bucket's bounds map back to that bucket, and the value one past
  // the upper bound starts the next bucket — the layout has no gaps or
  // overlaps. Checked over the first 20 octaves (covers all realistic
  // latencies; the layout is uniform beyond).
  const size_t limit =
      LatencyHistogram::kSubBucketCount + 20 * LatencyHistogram::kSubBucketCount;
  for (size_t index = 0; index < limit; ++index) {
    const uint64_t lo = LatencyHistogram::BucketLowerBound(index);
    const uint64_t hi = LatencyHistogram::BucketUpperBound(index);
    ASSERT_LE(lo, hi);
    EXPECT_EQ(LatencyHistogram::BucketIndex(lo), index);
    EXPECT_EQ(LatencyHistogram::BucketIndex(hi), index);
    EXPECT_EQ(LatencyHistogram::BucketIndex(hi + 1), index + 1);
  }
}

TEST(LatencyHistogramTest, RelativeErrorBoundedBySubBucketWidth) {
  // Within one bucket, (upper - lower) / lower <= 1/32 above the exact
  // range — the HDR guarantee quantiles inherit.
  for (uint64_t v : {100u, 999u, 12345u, 1000000u, 123456789u}) {
    const size_t index = LatencyHistogram::BucketIndex(v);
    const uint64_t lo = LatencyHistogram::BucketLowerBound(index);
    const uint64_t hi = LatencyHistogram::BucketUpperBound(index);
    EXPECT_LE(static_cast<double>(hi - lo) / static_cast<double>(lo),
              1.0 / 32.0 + 1e-12)
        << "bucket too wide at value " << v;
  }
}

TEST(LatencyHistogramTest, SnapshotCountsSumMinMax) {
  LatencyHistogram h;
  const uint64_t values[] = {3, 3, 7, 100, 100000};
  uint64_t sum = 0;
  for (uint64_t v : values) {
    h.Record(v);
    sum += v;
  }
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 5u);
  EXPECT_EQ(snap.sum, sum);
  EXPECT_EQ(snap.min, 3u);
  EXPECT_EQ(snap.max, 100000u);
  uint64_t bucket_total = 0;
  for (const HistogramBucket& b : snap.buckets) bucket_total += b.count;
  EXPECT_EQ(bucket_total, snap.count);
}

TEST(LatencyHistogramTest, QuantilesExactForExactBuckets) {
  LatencyHistogram h;
  // 10 samples of value 5, 10 of value 20 — both in the exact range, so
  // every quantile is one of the two values with no approximation.
  for (int i = 0; i < 10; ++i) h.Record(5);
  for (int i = 0; i < 10; ++i) h.Record(20);
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_DOUBLE_EQ(snap.Quantile(0.25), 5.0);
  EXPECT_DOUBLE_EQ(snap.Quantile(0.5), 5.0);   // rank 10 of 20 -> first bucket
  EXPECT_DOUBLE_EQ(snap.Quantile(0.75), 20.0);
  EXPECT_DOUBLE_EQ(snap.Quantile(1.0), 20.0);  // clamped to exact max
  EXPECT_DOUBLE_EQ(snap.Quantile(0.0), 5.0);
}

TEST(LatencyHistogramTest, MergeIsBucketExact) {
  LatencyHistogram a;
  LatencyHistogram b;
  LatencyHistogram combined;
  const uint64_t a_values[] = {1, 40, 1000};
  const uint64_t b_values[] = {2, 40, 999999};
  for (uint64_t v : a_values) {
    a.Record(v);
    combined.Record(v);
  }
  for (uint64_t v : b_values) {
    b.Record(v);
    combined.Record(v);
  }
  HistogramSnapshot merged = a.Snapshot();
  merged.Merge(b.Snapshot());
  const HistogramSnapshot expected = combined.Snapshot();
  EXPECT_EQ(merged.count, expected.count);
  EXPECT_EQ(merged.sum, expected.sum);
  EXPECT_EQ(merged.min, expected.min);
  EXPECT_EQ(merged.max, expected.max);
  ASSERT_EQ(merged.buckets.size(), expected.buckets.size());
  for (size_t i = 0; i < merged.buckets.size(); ++i) {
    EXPECT_EQ(merged.buckets[i].upper_bound, expected.buckets[i].upper_bound);
    EXPECT_EQ(merged.buckets[i].count, expected.buckets[i].count);
  }
}

TEST(LatencyHistogramTest, MergeIntoEmptyAdoptsOther) {
  LatencyHistogram empty;
  LatencyHistogram full;
  full.Record(17);
  full.Record(42);
  HistogramSnapshot merged = empty.Snapshot();
  merged.Merge(full.Snapshot());
  EXPECT_EQ(merged.count, 2u);
  EXPECT_EQ(merged.min, 17u);
  EXPECT_EQ(merged.max, 42u);
}

TEST(ShardedCounterTest, ConcurrentAddsSumExactly) {
  ShardedCounter counter;
  constexpr size_t kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter]() {
      for (uint64_t i = 0; i < kPerThread; ++i) counter.Add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter.Value(), kThreads * kPerThread);
}

TEST(ShardedGaugeTest, AddAndSet) {
  ShardedGauge gauge;
  gauge.Add(5);
  gauge.Add(-2);
  EXPECT_EQ(gauge.Value(), 3);
  gauge.Set(42);
  EXPECT_EQ(gauge.Value(), 42);
}

TEST(ValueHistogramTest, ClampsAndDropsNonFinite) {
  ValueHistogram h;
  h.Record(0.5);
  h.Record(-3.0);  // clamps to 0
  h.Record(7.0);   // clamps to 1
  h.Record(std::numeric_limits<double>::quiet_NaN());       // dropped
  h.Record(std::numeric_limits<double>::infinity());        // dropped
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 3u);
  EXPECT_EQ(snap.min, 0u);
  EXPECT_EQ(snap.max, ValueHistogram::kScale);
  EXPECT_EQ(snap.sum, 500000u + 0u + ValueHistogram::kScale);
}

TEST(ValueHistogramTest, BucketBoundariesPartitionTheUnitInterval) {
  // Micro-value bounds must tile [0, 1e6] with no gaps: each bucket's
  // upper bound + 1 lands in the next bucket.
  for (size_t index = 0; index + 1 < ValueHistogram::kNumBuckets; ++index) {
    const uint64_t hi = ValueHistogram::BucketUpperBound(index);
    EXPECT_EQ(ValueHistogram::BucketIndex(hi), index);
    EXPECT_EQ(ValueHistogram::BucketIndex(hi + 1), index + 1);
  }
  EXPECT_EQ(ValueHistogram::BucketIndex(ValueHistogram::kScale),
            ValueHistogram::kNumBuckets - 1);
}

TEST(TraceSpanTest, RecordsIntoHistogram) {
  LatencyHistogram h;
  uint64_t ns = 0;
  {
    TraceSpan span(&h);
    ns = span.Stop();
    EXPECT_EQ(span.Stop(), ns);  // idempotent
  }
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 1u);  // Stop + dtor record exactly once
  EXPECT_EQ(snap.sum, ns);
}

TEST(TraceSpanTest, NullHistogramIsSafe) {
  TraceSpan span(nullptr);  // fully disabled
  EXPECT_GE(span.Stop(), 0u);
}

TEST(MetricRegistryTest, GetOrCreateAndTypeConflicts) {
  MetricRegistry registry;
  ShardedCounter* c1 =
      registry.Counter("learnrisk_test_total", {{"k", "a"}}, "help");
  ShardedCounter* c2 =
      registry.Counter("learnrisk_test_total", {{"k", "a"}}, "ignored");
  ShardedCounter* c3 =
      registry.Counter("learnrisk_test_total", {{"k", "b"}}, "help");
  ASSERT_NE(c1, nullptr);
  EXPECT_EQ(c1, c2);  // same (name, labels) -> same instrument
  EXPECT_NE(c1, c3);  // different labels -> independent instrument
  // A name registered as a counter cannot become a histogram.
  EXPECT_EQ(registry.Latency("learnrisk_test_total", {}, "help"), nullptr);
  EXPECT_EQ(registry.Gauge("learnrisk_test_total", {}, "help"), nullptr);
}

TEST(MetricRegistryTest, SnapshotIsSortedAndComplete) {
  MetricRegistry registry;
  registry.Counter("learnrisk_b_total", {}, "b")->Add(2);
  registry.Counter("learnrisk_a_total", {{"z", "1"}}, "a")->Add(1);
  registry.Counter("learnrisk_a_total", {{"z", "0"}}, "a")->Add(3);
  registry.GaugeCallback("learnrisk_g", {}, "g", []() { return int64_t{7}; });
  registry.Latency("learnrisk_l_seconds", {}, "l")->Record(1000);
  registry.Values("learnrisk_v", {}, "v")->Record(0.25);

  const MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.counters.size(), 3u);
  EXPECT_EQ(snap.counters[0].name, "learnrisk_a_total");
  EXPECT_EQ(snap.counters[0].labels, MetricLabels({{"z", "0"}}));
  EXPECT_EQ(snap.counters[0].value, 3u);
  EXPECT_EQ(snap.counters[1].labels, MetricLabels({{"z", "1"}}));
  EXPECT_EQ(snap.counters[2].name, "learnrisk_b_total");
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].value, 7);
  ASSERT_EQ(snap.histograms.size(), 2u);
  EXPECT_DOUBLE_EQ(snap.histograms[0].scale, 1e-9);  // latency in seconds
  EXPECT_DOUBLE_EQ(snap.histograms[1].scale, 1e-6);  // micro-units to ratio

  EXPECT_NE(snap.FindCounter("learnrisk_b_total"), nullptr);
  EXPECT_EQ(snap.FindCounter("learnrisk_b_total")->value, 2u);
  EXPECT_EQ(snap.FindCounter("missing"), nullptr);
  EXPECT_NE(snap.FindGauge("learnrisk_g"), nullptr);
  EXPECT_NE(snap.FindHistogram("learnrisk_l_seconds"), nullptr);
}

TEST(ExportTest, PrometheusTextFormat) {
  MetricRegistry registry;
  registry.Counter("learnrisk_req_total", {{"ns", "a b\"\\"}}, "requests")
      ->Add(4);
  registry.GaugeCallback("learnrisk_depth", {}, "depth",
                         []() { return int64_t{-2}; });
  LatencyHistogram* h = registry.Latency("learnrisk_lat_seconds", {}, "lat");
  h->Record(10);
  h->Record(10);
  h->Record(500);

  const std::string text = ExportPrometheusText(registry.Snapshot());
  EXPECT_NE(text.find("# HELP learnrisk_req_total requests\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE learnrisk_req_total counter\n"),
            std::string::npos);
  // Label values escaped: backslash and quote.
  EXPECT_NE(text.find("learnrisk_req_total{ns=\"a b\\\"\\\\\"} 4\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE learnrisk_depth gauge\n"), std::string::npos);
  EXPECT_NE(text.find("learnrisk_depth -2\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE learnrisk_lat_seconds histogram\n"),
            std::string::npos);
  // Cumulative buckets: the 10ns bucket holds 2, +Inf holds all 3; sum is
  // 520ns = 5.2e-7 seconds.
  EXPECT_NE(text.find("learnrisk_lat_seconds_bucket{le=\"1e-08\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("learnrisk_lat_seconds_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("learnrisk_lat_seconds_sum 5.2e-07\n"),
            std::string::npos);
  EXPECT_NE(text.find("learnrisk_lat_seconds_count 3\n"), std::string::npos);
}

TEST(ExportTest, JsonIsWellFormedEnoughToGrep) {
  MetricRegistry registry;
  registry.Counter("learnrisk_x_total", {{"k", "v"}}, "x")->Add(9);
  registry.Values("learnrisk_score", {}, "scores")->Record(0.5);
  const std::string json = ExportJson(registry.Snapshot());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json[json.size() - 2], '}');  // trailing newline after the brace
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"learnrisk_x_total\""), std::string::npos);
  EXPECT_NE(json.find("\"value\": 9"), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  EXPECT_NE(json.find("\"p50\": 0.5"), std::string::npos);
}

}  // namespace
}  // namespace learnrisk
