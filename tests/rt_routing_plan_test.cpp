// Cross-checks the compiled RoutingPlan executor against the sequential
// reference (topo::SequentialRouter): token-for-token equal values
// single-threaded, where MCS balancers and unpaired prisms route like
// toggles; the hook fires once per layer, padding included; counting
// correctness and the step property under multi-thread stress; batch ==
// repeated single tokens, on fan-outs 2 and 3 and from varying inputs.
#include "rt/routing_plan.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <new>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "rt/network_counter.h"
#include "topo/builders.h"

namespace cnet::rt {
namespace {

struct TopologyCase {
  const char* name;
  topo::Network (*make)();
  CounterOptions options;
};

CounterOptions tree_options() {
  CounterOptions options;
  options.diffraction = true;
  options.prism_spin = 4;  // keep the single-thread fall-to-toggle path fast
  return options;
}

CounterOptions mcs_options() {
  CounterOptions options;
  options.mode = BalancerMode::kMcsLocked;
  return options;
}

std::vector<TopologyCase> cases() {
  return {
      {"bitonic16", [] { return topo::make_bitonic(16); }, CounterOptions{}},
      {"bitonic8_mcs", [] { return topo::make_bitonic(8); }, mcs_options()},
      {"periodic8", [] { return topo::make_periodic(8); }, CounterOptions{}},
      {"tree16_diffracting", [] { return topo::make_counting_tree(16); }, tree_options()},
      {"padded_bitonic8", [] { return topo::make_padded(topo::make_bitonic(8), 6); },
       CounterOptions{}},
      {"kary3_tree9", [] { return topo::make_kary_tree(3, 2); }, CounterOptions{}},
  };
}

TEST(RoutingPlanCrossCheck, SingleThreadTokenForToken) {
  for (const TopologyCase& tc : cases()) {
    SCOPED_TRACE(tc.name);
    const topo::Network net = tc.make();
    NetworkCounter plan(net, tc.options);
    topo::SequentialRouter reference(net);
    for (std::uint32_t i = 0; i < 512; ++i) {
      const std::uint32_t input = (i * 7) % net.input_width();
      ASSERT_EQ(plan.next(0, input), reference.next_value(input)) << "token " << i;
    }
    EXPECT_EQ(plan.issued(), 512u);
  }
}

/// The per-node hook must fire once per layer: every network in cases() is
/// uniform, so each token crosses depth() nodes — in particular the plan may
/// NOT compile pass-through padding nodes away when a hook (the run layer's
/// W-wait) is attached.
TEST(RoutingPlanCrossCheck, HookedWalkVisitsEveryNode) {
  const auto count_hook = [](void* ctx, std::uint32_t /*node*/, std::uint32_t /*port*/) {
    ++*static_cast<std::uint64_t*>(ctx);
  };
  for (const TopologyCase& tc : cases()) {
    SCOPED_TRACE(tc.name);
    const topo::Network net = tc.make();
    ASSERT_TRUE(net.is_uniform());
    NetworkCounter plan(net, tc.options);
    topo::SequentialRouter reference(net);
    for (std::uint32_t i = 0; i < 64; ++i) {
      std::uint64_t nodes = 0;
      const std::uint32_t input = i % net.input_width();
      ASSERT_EQ(plan.next_hooked(0, input, count_hook, &nodes), reference.next_value(input));
      EXPECT_EQ(nodes, net.depth()) << "token " << i;
    }
  }
}

/// A batch of 2 is below fan-out 3 (the split leaves a port empty), and the
/// inputs vary, so the wave must enter where the single tokens do.
TEST(RoutingPlan, BatchMatchesSingleTokensSingleThreaded) {
  for (const TopologyCase& tc : cases()) {
    SCOPED_TRACE(tc.name);
    NetworkCounter batched(tc.make(), tc.options);
    NetworkCounter singles(tc.make(), tc.options);
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

TEST(RoutingPlan, ConcurrentMixedBatchesFormRangeWithStepProperty) {
  const unsigned n_threads = std::min(8u, std::max(2u, std::thread::hardware_concurrency()));
  for (const TopologyCase& tc : cases()) {
    SCOPED_TRACE(tc.name);
    NetworkCounter counter(tc.make(), tc.options);
    const auto values = hammer(counter, n_threads, 6000, 17);
    expect_range_and_step(values, counter.network().output_width());
    EXPECT_EQ(counter.issued(), values.size());
  }
}

TEST(RoutingPlan, HomogeneousProfileDetection) {
  EXPECT_TRUE(RoutingPlan(topo::make_bitonic(32)).homogeneous_toggle_fan2());
  EXPECT_TRUE(RoutingPlan(topo::make_periodic(16)).homogeneous_toggle_fan2());
  // Pass-through padding is compiled away, so padded bitonic stays hoisted.
  EXPECT_TRUE(
      RoutingPlan(topo::make_padded(topo::make_bitonic(8), 10)).homogeneous_toggle_fan2());
  EXPECT_FALSE(
      RoutingPlan(topo::make_counting_tree(8), tree_options()).homogeneous_toggle_fan2());
  EXPECT_FALSE(
      RoutingPlan(topo::make_bitonic(8), mcs_options()).homogeneous_toggle_fan2());
}

TEST(RoutingPlan, DirectUseMatchesCounterFacade) {
  RoutingPlan plan(topo::make_bitonic(8));
  EXPECT_EQ(plan.input_width(), 8u);
  EXPECT_EQ(plan.output_width(), 8u);
  for (std::uint64_t i = 0; i < 100; ++i) EXPECT_EQ(plan.next(0, 0), i);
  EXPECT_EQ(plan.issued(), 100u);
}

// --- prism width derivation (layer-0 underflow guard) --------------------

TEST(PrismWidth, LayerDerivationNeverUnderflows) {
  // Layer 0 (an unlayered node) must behave like layer 1, not shift by
  // (0u - 1) == 0xffffffff.
  EXPECT_EQ(prism_width_for_layer(8, 0), 8u);
  EXPECT_EQ(prism_width_for_layer(8, 1), 8u);
  EXPECT_EQ(prism_width_for_layer(8, 2), 4u);
  EXPECT_EQ(prism_width_for_layer(8, 3), 2u);
  EXPECT_EQ(prism_width_for_layer(8, 4), 2u);   // floors at 2
  EXPECT_EQ(prism_width_for_layer(8, 64), 2u);  // huge layer: shift saturates
  EXPECT_EQ(prism_width_for_layer(2, 0), 2u);
}

/// A single 1-in/2-out balancer (the smallest diffracting topology — its one
/// prism node is the root) counts correctly.
TEST(PrismWidth, SingleBalancerDiffractingTopology) {
  NetworkCounter counter(topo::make_kary_tree(2, 1), tree_options());
  ASSERT_EQ(counter.network().output_width(), 2u);
  for (std::uint64_t i = 0; i < 50; ++i) EXPECT_EQ(counter.next(0, 0), i);

  const unsigned n_threads = std::min(4u, std::max(2u, std::thread::hardware_concurrency()));
  std::vector<std::vector<std::uint64_t>> values(n_threads);
  {
    std::vector<std::jthread> threads;
    for (unsigned t = 0; t < n_threads; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < 2000; ++i) values[t].push_back(counter.next(t, 0));
      });
    }
  }
  std::vector<std::uint64_t> all;
  for (auto& v : values) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  for (std::uint64_t i = 0; i < all.size(); ++i) {
    ASSERT_EQ(all[i], i + 50) << "at rank " << i;
  }
}

TEST(RoutingPlanDeath, BadInput) {
  RoutingPlan plan(topo::make_bitonic(8));
  EXPECT_DEATH(plan.next(0, 8), "");
}

// --- arena placement (PlanArena) -----------------------------------------

/// RAII cache-line-aligned buffer for arena tests.
struct AlignedArena {
  explicit AlignedArena(std::size_t n)
      : size(n), base(::operator new(n, std::align_val_t{RoutingPlan::state_align()})) {}
  ~AlignedArena() { ::operator delete(base, std::align_val_t{RoutingPlan::state_align()}); }
  std::size_t size;
  void* base;
};

TEST(PlanArena, ArenaPlacementMatchesHeapTokenForToken) {
  for (const TopologyCase& tc : cases()) {
    SCOPED_TRACE(tc.name);
    const std::size_t footprint = RoutingPlan::state_footprint(tc.make(), tc.options);
    AlignedArena arena(footprint);
    RoutingPlan heap_plan(tc.make(), tc.options);
    RoutingPlan arena_plan(tc.make(), tc.options,
                           PlanArena{arena.base, arena.size, /*attach=*/false});
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
  const std::size_t footprint = RoutingPlan::state_footprint(net);
  AlignedArena arena(footprint);
  std::uint64_t next_expected = 0;
  {
    RoutingPlan first(topo::make_bitonic(8), {}, PlanArena{arena.base, arena.size, false});
    for (std::uint64_t i = 0; i < 300; ++i) ASSERT_EQ(first.next(0, i % 8), i);
    next_expected = 300;
  }  // destructor must NOT tear down arena-resident state it does not own
  RoutingPlan second(topo::make_bitonic(8), {}, PlanArena{arena.base, arena.size, true});
  for (std::uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(second.next(0, i % 8), next_expected + i);
  }
  // Per-output ground truth survived the handover too: 400 tokens over 8
  // step-balanced outputs is exactly 50 each.
  for (std::uint32_t port = 0; port < 8; ++port) {
    EXPECT_EQ(second.output_count(port), 50u);
  }
}

TEST(PlanArena, CounterFacadeForwardsFootprintAndArena) {
  const std::size_t footprint =
      NetworkCounter::plan_state_footprint(topo::make_bitonic(8));
  EXPECT_EQ(footprint, RoutingPlan::state_footprint(topo::make_bitonic(8)));
  AlignedArena arena(footprint);
  NetworkCounter counter(topo::make_bitonic(8), {},
                         PlanArena{arena.base, arena.size, false});
  for (std::uint64_t i = 0; i < 50; ++i) EXPECT_EQ(counter.next(0, 0), i);
}

TEST(PlanArenaDeath, UndersizedArenaIsRefused) {
  const std::size_t footprint = RoutingPlan::state_footprint(topo::make_bitonic(8));
  AlignedArena arena(footprint);
  EXPECT_DEATH(RoutingPlan(topo::make_bitonic(8), {},
                           PlanArena{arena.base, footprint / 2, false}),
               "");
}

}  // namespace
}  // namespace cnet::rt
