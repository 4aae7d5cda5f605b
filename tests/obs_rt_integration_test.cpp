// End-to-end checks that the rt observability wiring reports the truth:
// token counts equal the values actually handed out, per-balancer visit
// totals match the topology, prism outcome counters partition their visits,
// and pass-through padding nodes are never counted as balancer work. Visits
// and prism toggles are read from the plan's balancer state, so the last
// tests pin what that read promises: monotone while tokens run, and kept
// after the counter is gone.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

#include "obs/backend_metrics.h"
#include "rt/network_counter.h"
#include "topo/builders.h"

#if CNET_OBS

namespace cnet::rt {
namespace {

std::uint64_t visits_total(const obs::CounterMetrics& metrics) {
  const std::vector<std::uint64_t> visits = metrics.balancer_visits.values();
  return std::accumulate(visits.begin(), visits.end(), std::uint64_t{0});
}

/// Runs `threads` workers, each drawing `per_thread` values via next().
std::vector<std::uint64_t> drain(NetworkCounter& counter, unsigned threads,
                                 std::uint64_t per_thread) {
  std::vector<std::vector<std::uint64_t>> values(threads);
  {
    std::vector<std::jthread> workers;
    for (unsigned t = 0; t < threads; ++t) {
      workers.emplace_back([&counter, &mine = values[t], per_thread, t] {
        mine.reserve(per_thread);
        for (std::uint64_t i = 0; i < per_thread; ++i) mine.push_back(counter.next(t));
      });
    }
  }
  std::vector<std::uint64_t> all;
  for (auto& v : values) all.insert(all.end(), v.begin(), v.end());
  return all;
}

TEST(ObsRtIntegration, TokenMetricsEqualValuesHandedOut) {
  const topo::Network net = topo::make_bitonic(8);
  const std::uint32_t depth = net.depth();
  obs::CounterMetrics metrics;
  metrics.sample_period = 1;  // time every token: histogram totals are exact
  CounterOptions options;
  options.metrics = &metrics;
  NetworkCounter counter(net, options);

  constexpr unsigned kThreads = 4;
  constexpr std::uint64_t kPerThread = 500;
  constexpr std::uint64_t kOps = kThreads * kPerThread;
  std::vector<std::uint64_t> all = drain(counter, kThreads, kPerThread);

  // The counter handed out 0..kOps-1 exactly once...
  std::sort(all.begin(), all.end());
  ASSERT_EQ(all.size(), kOps);
  for (std::uint64_t i = 0; i < kOps; ++i) ASSERT_EQ(all[i], i);

  // ...and the metrics agree with what actually happened.
  EXPECT_EQ(metrics.tokens.value(), kOps);
  EXPECT_EQ(metrics.sampled.value(), kOps);
  EXPECT_EQ(metrics.token_latency_ns.total(), kOps);
  // Bitonic[8] is uniform: every token visits exactly one balancer per layer.
  EXPECT_EQ(visits_total(metrics), kOps * depth);
  EXPECT_EQ(metrics.hop_latency_ns.total(), kOps * depth);
  EXPECT_EQ(metrics.batch_calls.value(), 0u);
  EXPECT_EQ(metrics.prism_pairs.value(), 0u);
}

TEST(ObsRtIntegration, SamplingThrottlesTimedPathOnly) {
  const topo::Network net = topo::make_bitonic(8);
  obs::CounterMetrics metrics;
  metrics.sample_period = 64;
  CounterOptions options;
  options.metrics = &metrics;
  NetworkCounter counter(net, options);

  constexpr std::uint64_t kOps = 640;
  for (std::uint64_t i = 0; i < kOps; ++i) counter.next(0);

  // Counters see every token; the timed path sees exactly 1/64 of them
  // (single thread -> single shard -> deterministic phase).
  EXPECT_EQ(metrics.tokens.value(), kOps);
  EXPECT_EQ(visits_total(metrics), kOps * net.depth());
  EXPECT_EQ(metrics.sampled.value(), kOps / 64);
  EXPECT_EQ(metrics.token_latency_ns.total(), kOps / 64);
}

TEST(ObsRtIntegration, BatchedTokensAreCountedIndividually) {
  const topo::Network net = topo::make_bitonic(8);
  obs::CounterMetrics metrics;
  CounterOptions options;
  options.metrics = &metrics;
  NetworkCounter counter(net, options);
  // A twin fed the same tokens one next() at a time.
  obs::CounterMetrics twin_metrics;
  options.metrics = &twin_metrics;
  NetworkCounter twin(net, options);

  constexpr std::size_t kBatch = 16;
  constexpr std::uint64_t kCalls = 20;
  std::vector<std::uint64_t> out(kBatch);
  for (std::uint64_t i = 0; i < kCalls; ++i) {
    counter.next_batch(0, 0, out);
    for (std::size_t j = 0; j < kBatch; ++j) twin.next(0, 0);
  }

  EXPECT_EQ(metrics.batch_calls.value(), kCalls);
  const std::uint64_t tokens = metrics.tokens.value();
  EXPECT_EQ(tokens, kCalls * kBatch);
  // Every 64th clock value is sampled, inside a batch too: those tokens
  // take the timed path one at a time.
  EXPECT_EQ(metrics.sampled.value(), tokens / 64);
  EXPECT_EQ(metrics.token_latency_ns.total(), tokens / 64);
  // A wave steps each balancer once per sub-batch, but by the sub-batch's
  // size, so the visits read from the state are the twin's.
  EXPECT_EQ(metrics.balancer_visits.values(), twin_metrics.balancer_visits.values());
}

TEST(ObsRtIntegration, PrismOutcomesPartitionTreeVisits) {
  // Counting tree with diffraction: every internal node is a prism, so each
  // visit resolves either by pairing or by falling through to the toggle.
  const topo::Network net = topo::make_counting_tree(8);
  obs::CounterMetrics metrics;
  CounterOptions options;
  options.diffraction = true;
  options.max_threads = 8;
  options.metrics = &metrics;
  NetworkCounter counter(net, options);

  constexpr unsigned kThreads = 4;
  constexpr std::uint64_t kPerThread = 500;
  std::vector<std::uint64_t> all = drain(counter, kThreads, kPerThread);
  std::sort(all.begin(), all.end());
  for (std::uint64_t i = 0; i < all.size(); ++i) ASSERT_EQ(all[i], i);

  const std::uint64_t visits = visits_total(metrics);
  EXPECT_EQ(visits, kThreads * kPerThread * net.depth());
  EXPECT_EQ(metrics.prism_pairs.value() + metrics.prism_toggles.value(), visits);
  // Pairs come in twos: each diffraction resolves two tokens.
  EXPECT_EQ(metrics.prism_pairs.value() % 2, 0u);
}

TEST(ObsRtIntegration, McsAcquiresCountBalancerEntries) {
  const topo::Network net = topo::make_bitonic(4);
  obs::CounterMetrics metrics;
  CounterOptions options;
  options.mode = BalancerMode::kMcsLocked;
  options.metrics = &metrics;
  NetworkCounter counter(net, options);

  constexpr std::uint64_t kOps = 200;
  for (std::uint64_t i = 0; i < kOps; ++i) counter.next(0);
  EXPECT_EQ(visits_total(metrics), kOps * net.depth());
}

TEST(ObsRtIntegration, PassThroughPaddingIsNotBalancerWork) {
  // Cor 3.12 padding prefixes every input with pass-through chains; they are
  // wire delay, not balancers, and must not show up as visits.
  const topo::Network net = topo::make_padded(topo::make_bitonic(4), 3);
  obs::CounterMetrics metrics;
  CounterOptions options;
  options.metrics = &metrics;
  NetworkCounter counter(net, options);

  constexpr std::uint64_t kOps = 100;
  for (std::uint64_t i = 0; i < kOps; ++i) counter.next(0);

  const std::vector<std::uint64_t> visits = metrics.balancer_visits.values();
  std::uint64_t total = 0;
  for (topo::NodeId id = 0; id < net.node_count(); ++id) {
    if (net.node(id).is_pass_through()) {
      EXPECT_EQ(visits[id], 0u) << "pass-through node " << id << " counted as a visit";
    }
    total += visits[id];
  }
  // The core Bitonic[4] still accounts for every hop.
  EXPECT_EQ(total, kOps * topo::make_bitonic(4).depth());
}

TEST(ObsRtIntegration, PaddedDiffractingTreeReadsPrismVisitsFromState) {
  // A prism's visits are the tokens that left the tree below it: behind
  // Cor 3.12 padding, the pass-through chain still reads 0 and the prisms
  // account for one visit per tree layer per token, split exactly into
  // pairings and toggles.
  const topo::Network tree = topo::make_counting_tree(8);
  const topo::Network net = topo::make_padded(tree, 3);
  obs::CounterMetrics metrics;
  CounterOptions options;
  options.diffraction = true;
  options.max_threads = 8;
  options.metrics = &metrics;
  NetworkCounter counter(net, options);

  constexpr unsigned kThreads = 4;
  constexpr std::uint64_t kPerThread = 500;
  drain(counter, kThreads, kPerThread);

  const std::vector<std::uint64_t> visits = metrics.balancer_visits.values();
  std::uint64_t prism_visits = 0;
  for (topo::NodeId id = 0; id < net.node_count(); ++id) {
    if (net.node(id).is_pass_through()) {
      EXPECT_EQ(visits[id], 0u) << "pass-through node " << id << " counted as a visit";
    } else {
      prism_visits += visits[id];
    }
  }
  EXPECT_EQ(prism_visits, kThreads * kPerThread * tree.depth());
  EXPECT_EQ(metrics.prism_pairs.value() + metrics.prism_toggles.value(), prism_visits);
}

TEST(ObsRtIntegration, SinkKeepsFinalCountsAfterTheCounterIsGone) {
  const topo::Network net = topo::make_bitonic(4);
  obs::CounterMetrics metrics;
  CounterOptions options;
  options.mode = BalancerMode::kMcsLocked;
  options.metrics = &metrics;
  constexpr std::uint64_t kOps = 200;
  {
    NetworkCounter counter(net, options);
    for (std::uint64_t i = 0; i < kOps; ++i) counter.next(0);
  }
  EXPECT_EQ(visits_total(metrics), kOps * net.depth());
}

TEST(ObsRtIntegration, LiveVisitReadsNeverGoBackwards) {
  const topo::Network net = topo::make_bitonic(8);
  obs::CounterMetrics metrics;
  CounterOptions options;
  options.metrics = &metrics;
  NetworkCounter counter(net, options);

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> reads{0};
  std::uint64_t regressions = 0;
  std::jthread reader([&] {
    std::vector<std::uint64_t> last(net.node_count(), 0);
    do {
      const std::vector<std::uint64_t> now = metrics.balancer_visits.values();
      for (std::size_t i = 0; i < now.size(); ++i) regressions += now[i] < last[i] ? 1 : 0;
      last = now;
      reads.fetch_add(1);
    } while (!done.load());
  });
  while (reads.load() == 0) std::this_thread::yield();  // reads overlap the run
  drain(counter, 4, 2000);
  done.store(true);
  reader.join();
  EXPECT_EQ(regressions, 0u);
  EXPECT_EQ(visits_total(metrics), 4 * 2000 * net.depth());
}

}  // namespace
}  // namespace cnet::rt

#else  // !CNET_OBS

TEST(ObsRtIntegration, DisabledBuild) {
  GTEST_SKIP() << "library built with CNET_OBS=0; instrumentation compiled out";
}

#endif
