// Unit tests for the observability primitives (src/obs): sharded counter
// merge semantics, read-through state counts, log-histogram bucket
// boundaries and quantiles, trace-ring wrap-around and Chrome JSON shape,
// and registry snapshot rendering.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <span>
#include <thread>
#include <vector>

#include "obs/backend_metrics.h"
#include "obs/metrics.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace cnet::obs {
namespace {

// --- ShardedCounter ------------------------------------------------------

TEST(ShardedCounter, MergesAcrossShards) {
  ShardedCounter counter;
  EXPECT_EQ(counter.value(), 0u);
  // Hit every shard and the fold beyond kShards.
  for (std::uint32_t tid = 0; tid < 2 * kShards; ++tid) counter.add(tid);
  EXPECT_EQ(counter.value(), 2 * kShards);
  counter.add(3, 10);
  EXPECT_EQ(counter.value(), 2 * kShards + 10);
}

TEST(ShardedCounter, ExactUnderConcurrency) {
  ShardedCounter counter;
  constexpr unsigned kThreads = 8;
  constexpr std::uint64_t kPerThread = 50'000;
  {
    std::vector<std::jthread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
      threads.emplace_back([&counter, t] {
        for (std::uint64_t i = 0; i < kPerThread; ++i) counter.add(t);
      });
    }
  }
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
}

TEST(ShardedCounter, SnapshotsAreMonotoneWhileWritersRun) {
  ShardedCounter counter;
  std::atomic<bool> stop{false};
  std::jthread writer([&] {
    std::uint32_t tid = 0;
    while (!stop.load(std::memory_order_relaxed)) counter.add(tid++ & 7);
  });
  std::uint64_t last = 0;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t now = counter.value();
    ASSERT_GE(now, last);
    last = now;
  }
  stop.store(true);
}

// --- StateCounts ---------------------------------------------------------

TEST(StateCounts, ReadsTheBoundStateAndKeepsTheFinalReading) {
  StateCounts counts;
  EXPECT_TRUE(counts.values().empty());
  std::vector<std::atomic<std::uint64_t>> state(3);
  counts.bind(3, [&state](std::span<std::uint64_t> out) {
    for (std::size_t i = 0; i < state.size(); ++i) out[i] += state[i].load();
  });
  EXPECT_EQ(counts.values(), (std::vector<std::uint64_t>{0, 0, 0}));
  // Reads go through to the executor's live state...
  state[1] = 5;
  state[2] = 7;
  EXPECT_EQ(counts.values(), (std::vector<std::uint64_t>{0, 5, 7}));
  EXPECT_EQ(counts.value(), 12u);
  // ...and after release() the final reading outlives that state.
  counts.release();
  state.clear();
  EXPECT_EQ(counts.values(), (std::vector<std::uint64_t>{0, 5, 7}));
  EXPECT_EQ(counts.value(), 12u);
}

TEST(StateCountsDeath, SinkObservesOneExecutorInItsLifetime) {
  // Reattaching would restart the state counts from zero under recorded
  // totals that kept counting; both sinks refuse.
  CounterMetrics rt_metrics;
  rt_metrics.attach();
  EXPECT_DEATH(rt_metrics.attach(), "one executor in its lifetime");
  MpMetrics mp_metrics;
  mp_metrics.attach();
  EXPECT_DEATH(mp_metrics.attach(), "one service in its lifetime");
}

// --- LogHistogram --------------------------------------------------------

TEST(LogHistogram, BucketBoundaries) {
  // Bucket b holds values with bit_width == b: 0 -> 0, 1 -> 1, [2,3] -> 2,
  // [4,7] -> 3, [2^(b-1), 2^b - 1] -> b.
  LogHistogram histogram;
  histogram.record(0, 0);
  histogram.record(0, 1);
  histogram.record(0, 2);
  histogram.record(0, 3);
  histogram.record(0, 4);
  histogram.record(0, 7);
  histogram.record(0, 8);
  const HistogramSnapshot snap = histogram.snapshot();
  EXPECT_EQ(snap.total, 7u);
  EXPECT_EQ(snap.buckets[0], 1u);
  EXPECT_EQ(snap.buckets[1], 1u);
  EXPECT_EQ(snap.buckets[2], 2u);
  EXPECT_EQ(snap.buckets[3], 2u);
  EXPECT_EQ(snap.buckets[4], 1u);
}

TEST(LogHistogram, BucketEdgesRoundTrip) {
  EXPECT_EQ(HistogramSnapshot::bucket_lo(0), 0u);
  EXPECT_EQ(HistogramSnapshot::bucket_hi(0), 0u);
  EXPECT_EQ(HistogramSnapshot::bucket_lo(1), 1u);
  EXPECT_EQ(HistogramSnapshot::bucket_hi(1), 1u);
  EXPECT_EQ(HistogramSnapshot::bucket_lo(4), 8u);
  EXPECT_EQ(HistogramSnapshot::bucket_hi(4), 15u);
  // Every representable value lands in the bucket whose edges bracket it.
  for (std::uint32_t b = 1; b <= 64; ++b) {
    const std::uint64_t lo = HistogramSnapshot::bucket_lo(b);
    const std::uint64_t hi = HistogramSnapshot::bucket_hi(b);
    EXPECT_EQ(static_cast<std::uint32_t>(std::bit_width(lo)), b);
    EXPECT_EQ(static_cast<std::uint32_t>(std::bit_width(hi)), b);
  }
}

TEST(LogHistogram, QuantilesInterpolateWithinBucket) {
  LogHistogram histogram;
  for (int i = 0; i < 1000; ++i) histogram.record(0, 100);  // bucket [64, 127]
  const HistogramSnapshot snap = histogram.snapshot();
  const double p50 = snap.quantile(0.5);
  EXPECT_GE(p50, 64.0);
  EXPECT_LE(p50, 127.0);
  EXPECT_LE(snap.quantile(0.1), snap.quantile(0.9));
}

TEST(LogHistogram, QuantileRatioSeparatesBimodalLatencies) {
  // Half the samples at ~16 (fast links), half at ~1024 (slow links): the
  // p90/p10 ratio must land near the true 64x ratio, within the factor-of-2
  // bucket resolution: [1024/31, 2047/16] ~= [33, 128].
  LogHistogram histogram;
  for (int i = 0; i < 100; ++i) histogram.record(0, 16);
  for (int i = 0; i < 100; ++i) histogram.record(1, 1024);
  const double ratio = histogram.snapshot().quantile_ratio(0.1, 0.9);
  EXPECT_GE(ratio, 32.0);
  EXPECT_LE(ratio, 128.0);
}

TEST(LogHistogram, QuantileRatioDegradesToOne) {
  LogHistogram histogram;
  EXPECT_DOUBLE_EQ(histogram.snapshot().quantile_ratio(0.1, 0.9), 1.0);  // empty
  for (int i = 0; i < 10; ++i) histogram.record(0, 0);
  // All-zero samples: the low quantile is 0, so no ratio is computable.
  EXPECT_DOUBLE_EQ(histogram.snapshot().quantile_ratio(0.1, 0.9), 1.0);
}

TEST(LogHistogram, SnapshotTotalsMonotoneWhileWritersRun) {
  LogHistogram histogram;
  std::atomic<bool> stop{false};
  std::jthread writer([&] {
    std::uint64_t v = 1;
    while (!stop.load(std::memory_order_relaxed)) histogram.record(0, v++ & 0xFFF);
  });
  std::uint64_t last = 0;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t now = histogram.snapshot().total;
    ASSERT_GE(now, last);
    last = now;
  }
  stop.store(true);
}

// --- TraceRing -----------------------------------------------------------

TEST(TraceRing, DisabledRingIsInert) {
  TraceRing ring;
  EXPECT_FALSE(ring.enabled());
  ring.record(0, TraceEvent{1, 2, 3, 4, TracePhase::kHop});
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_NE(ring.dump_chrome_json().find("traceEvents"), std::string::npos);
}

TEST(TraceRing, WrapKeepsNewestEvents) {
  TraceRing ring;
  ring.enable(8);
  ASSERT_TRUE(ring.enabled());
  // 20 events through one shard in an 8-slot ring: only ids 12..19 survive.
  for (std::uint32_t i = 0; i < 20; ++i) {
    ring.record(0, TraceEvent{i, 1, 0, i, TracePhase::kHop});
  }
  EXPECT_EQ(ring.size(), 8u);
  const std::string json = ring.dump_chrome_json();
  EXPECT_NE(json.find("\"id\":19"), std::string::npos);
  EXPECT_NE(json.find("\"id\":12"), std::string::npos);
  EXPECT_EQ(json.find("\"id\":11"), std::string::npos);
}

TEST(TraceRing, ChromeJsonShape) {
  TraceRing ring;
  ring.enable(8);
  ring.record(0, TraceEvent{2000, 500, 7, 3, TracePhase::kHop});
  ring.record(1, TraceEvent{4000, 1000, 8, 1, TracePhase::kOp});
  const std::string json = ring.dump_chrome_json();  // ns -> us
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"balancer 3\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"op 1\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"tid\":7"), std::string::npos);
  // 2000 ns / 1000 = 2 us.
  EXPECT_NE(json.find("\"ts\":2"), std::string::npos);
}

// --- MetricsRegistry -----------------------------------------------------

TEST(MetricsRegistry, SnapshotCarriesAllMetricKinds) {
  ShardedCounter counter;
  counter.add(0, 42);
  LogHistogram histogram;
  histogram.record(0, 100);
  MetricsRegistry registry;
  registry.add_counter("test.tokens", "tokens", &counter);
  registry.add_gauge("test.ratio", "ratio", [] { return 1.5; });
  registry.add_histogram("test.latency", "ns", &histogram);

  const Snapshot snap = registry.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].name, "test.tokens");
  EXPECT_EQ(snap.counters[0].value, 42u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.gauges[0].value, 1.5);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].histogram.total, 1u);

  const std::string text = snap.to_text();
  EXPECT_NE(text.find("test.tokens"), std::string::npos);
  EXPECT_NE(text.find("42"), std::string::npos);
  const std::string json = snap.to_json();
  EXPECT_NE(json.find("\"test.tokens\":42"), std::string::npos);
  EXPECT_NE(json.find("\"test.ratio\":1.5"), std::string::npos);
  EXPECT_NE(json.find("\"test.latency\""), std::string::npos);
}

TEST(MetricsRegistry, BackendStructsRegisterUnderPrefixedNames) {
  CounterMetrics rt_metrics;
  rt_metrics.attach();
  MpMetrics mp_metrics;
  mp_metrics.attach();
  PsimMetrics psim_metrics;
  MetricsRegistry registry;
  rt_metrics.register_into(registry);
  mp_metrics.register_into(registry);
  psim_metrics.register_into(registry);
  const std::string text = registry.snapshot().to_text();
  EXPECT_NE(text.find("rt.tokens"), std::string::npos);
  EXPECT_NE(text.find("rt.c2c1_estimate"), std::string::npos);
  EXPECT_NE(text.find("mp.queue_depth"), std::string::npos);
  EXPECT_NE(text.find("psim.ops"), std::string::npos);
}

// --- CounterMetrics sampling --------------------------------------------

TEST(CounterMetrics, SamplesEveryPeriodthTokenPerShard) {
  CounterMetrics metrics;
  metrics.sample_period = 4;
  metrics.attach();
  int sampled = 0;
  for (int i = 0; i < 16; ++i) sampled += metrics.should_sample(0) ? 1 : 0;
  EXPECT_EQ(sampled, 4);
  // Independent shard: its own phase.
  EXPECT_TRUE(metrics.should_sample(1));
}

TEST(CounterMetrics, EstimateIsNeutralWithoutSamples) {
  CounterMetrics metrics;
  metrics.attach();
  EXPECT_DOUBLE_EQ(metrics.c2c1_estimate(), 1.0);
}

}  // namespace
}  // namespace cnet::obs
