#include "rt/network_counter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "topo/builders.h"

namespace cnet::rt {
namespace {

std::vector<std::uint64_t> hammer(NetworkCounter& counter, unsigned n_threads,
                                  int per_thread) {
  std::vector<std::vector<std::uint64_t>> values(n_threads);
  {
    std::vector<std::jthread> threads;
    for (unsigned t = 0; t < n_threads; ++t) {
      threads.emplace_back([&, t] {
        values[t].reserve(per_thread);
        for (int i = 0; i < per_thread; ++i) values[t].push_back(counter.next(t));
      });
    }
  }
  std::vector<std::uint64_t> all;
  for (auto& v : values) all.insert(all.end(), v.begin(), v.end());
  return all;
}

void expect_range(std::vector<std::uint64_t> values) {
  std::sort(values.begin(), values.end());
  for (std::uint64_t i = 0; i < values.size(); ++i) {
    ASSERT_EQ(values[i], i) << "at rank " << i;
  }
}

TEST(NetworkCounter, SingleThreadSequential) {
  NetworkCounter counter(topo::make_bitonic(8));
  for (std::uint64_t i = 0; i < 100; ++i) EXPECT_EQ(counter.next(0, 0), i);
  EXPECT_EQ(counter.issued(), 100u);
}

TEST(NetworkCounter, SingleThreadAcrossInputs) {
  NetworkCounter counter(topo::make_bitonic(8));
  for (std::uint64_t i = 0; i < 64; ++i) {
    EXPECT_EQ(counter.next(0, static_cast<std::uint32_t>(i % 8)), i);
  }
}

class CounterConfigs : public ::testing::TestWithParam<int> {};

TEST_P(CounterConfigs, ConcurrentValuesFormRange) {
  const int config = GetParam();
  CounterOptions options;
  topo::Network net = topo::make_bitonic(16);
  switch (config) {
    case 0:
      options.mode = BalancerMode::kFetchAdd;
      break;
    case 1:
      options.mode = BalancerMode::kMcsLocked;
      break;
    case 2:
      net = topo::make_periodic(8);
      break;
    case 3:
      net = topo::make_counting_tree(16);
      options.diffraction = true;
      break;
    case 4:
      net = topo::make_padded(topo::make_bitonic(8), 10);
      break;
    case 5:  // a diffracting tree [21]
      net = topo::make_counting_tree(32);
      options.diffraction = true;
      break;
    default:
      FAIL();
  }
  NetworkCounter counter(std::move(net), options);
  const unsigned n_threads = std::min(8u, std::max(2u, std::thread::hardware_concurrency()));
  const auto values = hammer(counter, n_threads, 10000);
  expect_range(values);
  EXPECT_EQ(counter.issued(), values.size());
}

INSTANTIATE_TEST_SUITE_P(Configs, CounterConfigs, ::testing::Range(0, 6));

TEST(NetworkCounter, TreeSingleInputConvenience) {
  for (const bool diffraction : {false, true}) {
    CounterOptions options;
    options.diffraction = diffraction;
    NetworkCounter counter(topo::make_counting_tree(8), options);
    // next(thread_id) uses input thread_id % 1 == 0 for trees.
    for (std::uint64_t i = 0; i < 20; ++i) {
      EXPECT_EQ(counter.next(3), i) << "diffraction=" << diffraction;
    }
  }
}

TEST(NetworkCounter, PerThreadValuesStrictlyIncrease) {
  // Each thread's own observations must increase: its ops are sequential,
  // and a counting network without extreme timing skew hands a later
  // operation of the same thread a larger value... but that is exactly
  // linearizability, which is NOT guaranteed. What IS guaranteed: values
  // are globally unique. This test pins the weaker contract.
  NetworkCounter counter(topo::make_bitonic(8));
  const auto values = hammer(counter, 4, 5000);
  expect_range(values);
}

TEST(NetworkCounter, ExplicitPrismConfiguration) {
  CounterOptions options;
  options.diffraction = true;
  options.prism_width = 2;
  options.prism_spin = 8;
  NetworkCounter counter(topo::make_counting_tree(8), options);
  const auto values = hammer(counter, 4, 5000);
  expect_range(values);
}

TEST(NetworkCounterDeath, BadInput) {
  NetworkCounter counter(topo::make_bitonic(8));
  EXPECT_DEATH(counter.next(0, 8), "");
}

TEST(NetworkCounterDeath, ThreadIdBeyondMax) {
  CounterOptions options;
  options.max_threads = 4;
  NetworkCounter counter(topo::make_bitonic(8), options);
  EXPECT_DEATH(counter.next(4, 0), "");
}

}  // namespace
}  // namespace cnet::rt
