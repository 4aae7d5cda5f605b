#include "stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace perfbench {
namespace {

TEST(PerfbenchStats, QuantileNeedsTenSamplesAboveIt) {
  EXPECT_EQ(supported_quantile(1000, 0.99), 0.99);
  EXPECT_EQ(supported_quantile(999, 0.99), 0.9);
  EXPECT_EQ(supported_quantile(10000, 0.999), 0.999);
  EXPECT_EQ(supported_quantile(10000, 0.99), 0.99);
  EXPECT_EQ(supported_quantile(100, 0.99), 0.9);
  EXPECT_EQ(supported_quantile(20, 0.99), 0.5);
  EXPECT_FALSE(supported_quantile(19, 0.5).has_value());
}

TEST(PerfbenchStats, PercentileReportsQuantileAndSampleCount) {
  std::vector<double> samples;
  for (int i = 1000; i >= 1; --i) samples.push_back(i);
  const std::optional<Percentile> p99 = percentile(samples, 0.99);
  ASSERT_TRUE(p99.has_value());
  EXPECT_EQ(p99->q, 0.99);
  EXPECT_EQ(p99->value, 990.0);
  EXPECT_EQ(p99->samples, 1000u);
  EXPECT_EQ(std::count_if(samples.begin(), samples.end(),
                          [&](double x) { return x > p99->value; }),
            10);
  EXPECT_EQ(percentile(samples, 0.5)->value, 500.0);

  std::vector<double> few(50, 1.0);
  const std::optional<Percentile> lowered = percentile(few, 0.99);
  ASSERT_TRUE(lowered.has_value());
  EXPECT_EQ(lowered->q, 0.5);
  EXPECT_EQ(lowered->samples, 50u);
  std::vector<double> too_few(19, 1.0);
  EXPECT_FALSE(percentile(too_few, 0.5).has_value());
}

TEST(PerfbenchStats, Median) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(PerfbenchStats, FailedOpsCountAgainstAttemptedAndMissEveryLimit) {
  OpTally tally;
  tally.ok = 6;
  tally.shed = 1;
  tally.timeout = 1;
  tally.error = 1;
  tally.abandoned = 1;
  EXPECT_EQ(tally.failed(), 4u);
  EXPECT_EQ(tally.attempted(), 10u);
  EXPECT_DOUBLE_EQ(tally.failed_frac(), 0.4);
  tally.lost = 2;
  EXPECT_EQ(tally.failed(), 6u);
  EXPECT_DOUBLE_EQ(tally.failed_frac(), 0.5);

  const std::vector<double> ok_latencies = {1, 2, 3, 4, 5, 6};
  // A failed op misses even a limit every ok op meets.
  EXPECT_DOUBLE_EQ(tally.within_limit(ok_latencies, 1e18), 0.5);
  EXPECT_DOUBLE_EQ(tally.within_limit(ok_latencies, 3.0), 0.25);
  EXPECT_EQ(OpTally{}.failed_frac(), 0.0);
}

TEST(PerfbenchStats, WarmupOpsNeverEnterTheTimedWindow) {
  const cnet::lin::History history = {
      {0.0, 5.0, 0, 0},     // warm-up, done before the window
      {3.0, 12.0, 1, 1},    // warm-up that completes inside the window
      {10.0, 14.0, 2, 0},   // timed
      {11.0, 20.0, 3, 1},   // timed
      {25.0, 40.0, 4, 0},   // timed; ends after the window, started inside it
      {30.0, 31.0, 5, 1},   // after the window
  };
  std::vector<double> latencies = window_latencies(history, 10.0, 30.0);
  std::sort(latencies.begin(), latencies.end());
  EXPECT_EQ(latencies, (std::vector<double>{4.0, 9.0, 15.0}));
}

}  // namespace
}  // namespace perfbench
