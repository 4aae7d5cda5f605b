// rt::NetworkCounter: cross-checked against the sequential reference
// (topo::SequentialRouter) — token-for-token equal values single-threaded;
// the hook fires once per balancer,
// pass-through padding compiled away; counting correctness and the step
// property under multi-thread stress; batch == repeated single tokens, on
// fan-outs 2 and 3 and from varying inputs; arena placement and attach; and
// the input and thread-id CHECKs.
#include "rt/network_counter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <new>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "topo/builders.h"

namespace cnet::rt {
namespace {

struct TopologyCase {
  const char* name;
  topo::Network (*make)();
};

std::vector<TopologyCase> cases() {
  return {
      {"bitonic16", [] { return topo::make_bitonic(16); }},
      {"periodic8", [] { return topo::make_periodic(8); }},
      {"tree16", [] { return topo::make_counting_tree(16); }},
      {"padded_bitonic8", [] { return topo::make_padded(topo::make_bitonic(8), 6); }},
      {"kary3_tree9", [] { return topo::make_kary_tree(3, 2); }},
  };
}

TEST(NetworkCounterCrossCheck, SingleThreadTokenForToken) {
  for (const TopologyCase& tc : cases()) {
    SCOPED_TRACE(tc.name);
    const topo::Network net = tc.make();
    NetworkCounter plan(net);
    topo::SequentialRouter reference(net);
    for (std::uint32_t i = 0; i < 512; ++i) {
      const std::uint32_t input = (i * 7) % net.input_width();
      ASSERT_EQ(plan.next(0, input), reference.next_value(input)) << "token " << i;
    }
    EXPECT_EQ(plan.issued(), 512u);
  }
}

/// The per-node hook must fire once per balancer: every network in cases()
/// is uniform, so each token crosses depth() nodes, except that every walk
/// compiles pass-through padding away, so the padded case crosses only its
/// Bitonic[8] base.
TEST(NetworkCounterCrossCheck, HookedWalkVisitsEveryNode) {
  const auto count_hook = [](void* ctx, std::uint32_t /*node*/, std::uint32_t /*port*/) {
    ++*static_cast<std::uint64_t*>(ctx);
  };
  for (const TopologyCase& tc : cases()) {
    SCOPED_TRACE(tc.name);
    const topo::Network net = tc.make();
    ASSERT_TRUE(net.is_uniform());
    NetworkCounter plan(net);
    topo::SequentialRouter reference(net);
    const std::uint32_t balancers = std::string(tc.name) == "padded_bitonic8"
                                        ? topo::make_bitonic(8).depth()
                                        : net.depth();
    for (std::uint32_t i = 0; i < 64; ++i) {
      std::uint64_t nodes = 0;
      const std::uint32_t input = i % net.input_width();
      ASSERT_EQ(plan.next_hooked(0, input, count_hook, &nodes), reference.next_value(input));
      EXPECT_EQ(nodes, balancers) << "token " << i;
    }
  }
}

/// A batch of 2 is below fan-out 3 (the split leaves a port empty), and the
/// inputs vary, so the wave must enter where the single tokens do.
TEST(NetworkCounter, BatchMatchesSingleTokensSingleThreaded) {
  for (const TopologyCase& tc : cases()) {
    SCOPED_TRACE(tc.name);
    NetworkCounter batched(tc.make());
    NetworkCounter singles(tc.make());
    const std::uint32_t width = batched.network().input_width();
    std::vector<std::uint64_t> from_batches;
    std::vector<std::uint64_t> from_singles;
    std::uint32_t call = 0;
    for (const std::size_t batch : {1, 2, 3, 16, 64, 5, 2, 33}) {
      const std::uint32_t input = (call++ * 5 + 3) % width;
      std::vector<std::uint64_t> chunk(batch);
      batched.next_batch(0, input, chunk);
      from_batches.insert(from_batches.end(), chunk.begin(), chunk.end());
      for (std::size_t i = 0; i < batch; ++i) from_singles.push_back(singles.next(0, input));
    }
    EXPECT_EQ(from_batches, from_singles);
  }
}

std::vector<std::uint64_t> hammer(NetworkCounter& counter, unsigned n_threads, int per_thread,
                                  std::size_t batch) {
  std::vector<std::vector<std::uint64_t>> values(n_threads);
  {
    std::vector<std::jthread> threads;
    for (unsigned t = 0; t < n_threads; ++t) {
      threads.emplace_back([&, t] {
        const std::uint32_t input = t % counter.network().input_width();
        values[t].resize(static_cast<std::size_t>(per_thread));
        std::span<std::uint64_t> mine(values[t]);
        while (!mine.empty()) {
          const std::size_t n = std::min(batch, mine.size());
          counter.next_batch(t, input, mine.first(n));
          mine = mine.subspan(n);
        }
      });
    }
  }
  std::vector<std::uint64_t> all;
  for (auto& v : values) all.insert(all.end(), v.begin(), v.end());
  return all;
}

void expect_range_and_step(std::vector<std::uint64_t> values, std::uint32_t width) {
  std::sort(values.begin(), values.end());
  for (std::uint64_t i = 0; i < values.size(); ++i) {
    ASSERT_EQ(values[i], i) << "at rank " << i;
  }
  // Quiescent per-port exit counts (value % width) must form a step.
  std::vector<std::uint64_t> per_port(width, 0);
  for (std::uint64_t v = 0; v < values.size(); ++v) ++per_port[v % width];
  for (std::uint32_t i = 0; i + 1 < width; ++i) {
    const std::uint64_t diff = per_port[i] - per_port[i + 1];
    ASSERT_LE(diff, 1u) << "step property broken between ports " << i << " and " << i + 1;
  }
}

TEST(NetworkCounter, ConcurrentMixedBatchesFormRangeWithStepProperty) {
  const unsigned n_threads = std::min(8u, std::max(2u, std::thread::hardware_concurrency()));
  for (const TopologyCase& tc : cases()) {
    SCOPED_TRACE(tc.name);
    NetworkCounter counter(tc.make());
    const auto values = hammer(counter, n_threads, 6000, 17);
    expect_range_and_step(values, counter.network().output_width());
    EXPECT_EQ(counter.issued(), values.size());
  }
}

TEST(NetworkCounter, HomogeneousProfileDetection) {
  EXPECT_TRUE(NetworkCounter(topo::make_bitonic(32)).homogeneous_toggle_fan2());
  EXPECT_TRUE(NetworkCounter(topo::make_periodic(16)).homogeneous_toggle_fan2());
  // Pass-through padding is compiled away, so padded bitonic stays hoisted.
  EXPECT_TRUE(
      NetworkCounter(topo::make_padded(topo::make_bitonic(8), 10)).homogeneous_toggle_fan2());
  // A counting tree is fan-out-2 toggles too; a 3-ary tree is not.
  EXPECT_TRUE(NetworkCounter(topo::make_counting_tree(8)).homogeneous_toggle_fan2());
  EXPECT_FALSE(NetworkCounter(topo::make_kary_tree(3, 2)).homogeneous_toggle_fan2());
}

// --- arena placement (PlanArena) -----------------------------------------

/// RAII cache-line-aligned buffer for arena tests.
struct AlignedArena {
  explicit AlignedArena(std::size_t n)
      : size(n), base(::operator new(n, std::align_val_t{NetworkCounter::state_align()})) {}
  ~AlignedArena() { ::operator delete(base, std::align_val_t{NetworkCounter::state_align()}); }
  std::size_t size;
  void* base;
};

TEST(PlanArena, ArenaPlacementMatchesHeapTokenForToken) {
  for (const TopologyCase& tc : cases()) {
    SCOPED_TRACE(tc.name);
    const std::size_t footprint = NetworkCounter::state_footprint(tc.make());
    AlignedArena arena(footprint);
    NetworkCounter heap_plan(tc.make());
    NetworkCounter arena_plan(tc.make(), {}, PlanArena{arena.base, arena.size, /*attach=*/false});
    // The default path must be byte-identical in behaviour: the same token
    // sequence routes identically whether state is heap- or arena-resident.
    for (std::uint64_t i = 0; i < 500; ++i) {
      const std::uint32_t input = static_cast<std::uint32_t>(i) % heap_plan.input_width();
      ASSERT_EQ(heap_plan.next(0, input), arena_plan.next(0, input)) << "token " << i;
    }
    EXPECT_EQ(heap_plan.issued(), arena_plan.issued());
  }
}

TEST(PlanArena, AttachAdoptsLiveStateWithoutReset) {
  // The restart story: a first plan constructs shared state in the arena
  // and counts; a second plan (a "restarted process") attaches the same
  // bytes and continues exactly where the first left off.
  const topo::Network net = topo::make_bitonic(8);
  const std::size_t footprint = NetworkCounter::state_footprint(net);
  AlignedArena arena(footprint);
  std::uint64_t next_expected = 0;
  {
    NetworkCounter first(topo::make_bitonic(8), {}, PlanArena{arena.base, arena.size, false});
    for (std::uint64_t i = 0; i < 300; ++i) ASSERT_EQ(first.next(0, i % 8), i);
    next_expected = 300;
  }  // destructor must NOT tear down arena-resident state it does not own
  NetworkCounter second(topo::make_bitonic(8), {}, PlanArena{arena.base, arena.size, true});
  for (std::uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(second.next(0, i % 8), next_expected + i);
  }
  // Per-output ground truth survived the handover too: 400 tokens over 8
  // step-balanced outputs is exactly 50 each.
  for (std::uint32_t port = 0; port < 8; ++port) {
    EXPECT_EQ(second.output_count(port), 50u);
  }
}

TEST(PlanArenaDeath, UndersizedArenaIsRefused) {
  const std::size_t footprint = NetworkCounter::state_footprint(topo::make_bitonic(8));
  AlignedArena arena(footprint);
  EXPECT_DEATH(NetworkCounter(topo::make_bitonic(8), {},
                              PlanArena{arena.base, footprint / 2, false}),
               "");
}

/// A counter that adopts live state (a restarted deploy tile) keeps the
/// thread-id bound every other caller has.
TEST(PlanArenaDeath, AttachedCounterRefusesThreadIdBeyondMax) {
  CounterOptions options;
  options.max_threads = 4;
  const std::size_t footprint = NetworkCounter::state_footprint(topo::make_bitonic(8));
  AlignedArena arena(footprint);
  NetworkCounter first(topo::make_bitonic(8), options, PlanArena{arena.base, arena.size, false});
  NetworkCounter attached(topo::make_bitonic(8), options,
                          PlanArena{arena.base, arena.size, /*attach=*/true});
  EXPECT_EQ(attached.next(3, 0), 0u);
  std::uint64_t value = 0;
  EXPECT_DEATH(attached.next(4, 0), "");
  EXPECT_DEATH(attached.next_batch(4, 0, std::span<std::uint64_t>(&value, 1)), "");
}

// --- single tokens ------------------------------------------------------

/// One next(t) per token: the single-token twin of the batched hammer above.
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
  topo::Network net = topo::make_bitonic(16);
  switch (config) {
    case 0:
      break;
    case 2:
      net = topo::make_periodic(8);
      break;
    case 3:
      net = topo::make_counting_tree(16);
      break;
    case 4:
      net = topo::make_padded(topo::make_bitonic(8), 10);
      break;
    case 5:
      net = topo::make_counting_tree(32);
      break;
    default:
      FAIL();
  }
  NetworkCounter counter(std::move(net));
  const unsigned n_threads = std::min(8u, std::max(2u, std::thread::hardware_concurrency()));
  const auto values = hammer(counter, n_threads, 10000);
  expect_range(values);
  EXPECT_EQ(counter.issued(), values.size());
}

// Named by config number: config 1 (MCS-locked balancers) went with rt's MCS
// balancer kind, and the other configs keep their names.
INSTANTIATE_TEST_SUITE_P(Configs, CounterConfigs, ::testing::Values(0, 2, 3, 4, 5),
                         [](const ::testing::TestParamInfo<int>& config) {
                           return std::to_string(config.param);
                         });

TEST(NetworkCounter, TreeSingleInputConvenience) {
  NetworkCounter counter(topo::make_counting_tree(8));
  // next(thread_id) uses input thread_id % 1 == 0 for trees.
  for (std::uint64_t i = 0; i < 20; ++i) EXPECT_EQ(counter.next(3), i);
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
