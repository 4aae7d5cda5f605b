// Real-thread throughput: the scalability claim that motivates counting
// networks (§1). Compares a central atomic fetch_add counter, a central
// counter under one MCS lock, and the counting-network counters across
// thread counts — single tokens and the batched plan API.
//
// google-benchmark's ->Threads(n) runs the benchmark body on n threads
// concurrently. Shared state is (re)built in ->Setup() hooks, which the
// framework invokes on the main thread before any benchmark thread starts —
// rebuilding inside the body under `state.thread_index() == 0` raced with
// non-zero threads already entering the measurement loop.
//
// Every network configuration is a BackendSpec string through the run::
// harness; this file contains no backend construction of its own. The two
// baselines (central atomic, MCS-locked) stay hand-rolled — they are the
// non-network reference points.
#include <benchmark/benchmark.h>

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "rt/mcs_lock.h"
#include "run/backend.h"

namespace {

using namespace cnet;

// --- baselines ---------------------------------------------------------

std::atomic<std::uint64_t> g_atomic_counter{0};

void setup_central_atomic(const benchmark::State&) { g_atomic_counter.store(0); }

void BM_CentralAtomic(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(g_atomic_counter.fetch_add(1, std::memory_order_acq_rel));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CentralAtomic)->Setup(setup_central_atomic)->ThreadRange(1, 8)->UseRealTime();

struct LockedCounter {
  rt::McsLock lock;
  std::uint64_t value = 0;
  std::uint64_t next() {
    rt::McsLock::Guard guard(lock);
    return value++;
  }
  void reset() {
    rt::McsLock::Guard guard(lock);
    value = 0;
  }
};
LockedCounter g_locked_counter;

void setup_mcs_locked(const benchmark::State&) { g_locked_counter.reset(); }

void BM_McsLockedCounter(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(g_locked_counter.next());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_McsLockedCounter)->Setup(setup_mcs_locked)->ThreadRange(1, 8)->UseRealTime();

// --- counting networks --------------------------------------------------

std::unique_ptr<run::CountingBackend> g_backend;

void teardown_backend(const benchmark::State&) { g_backend.reset(); }

void rebuild_backend(const std::string& spec_text) {
  g_backend = run::make_backend(run::parse_spec_or_die(spec_text));
}

void setup_bitonic_plan(const benchmark::State& state) {
  rebuild_backend("rt:bitonic:" + std::to_string(state.range(0)));
}

void setup_periodic_plan(const benchmark::State& state) {
  rebuild_backend("rt:periodic:" + std::to_string(state.range(0)));
}

void setup_tree(const benchmark::State& state) {
  rebuild_backend("rt:tree:" + std::to_string(state.range(0)));
}

void run_single_token_body(benchmark::State& state) {
  const auto tid = static_cast<std::uint32_t>(state.thread_index());
  for (auto _ : state) {
    benchmark::DoNotOptimize(g_backend->count(tid));
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_BitonicFetchAdd(benchmark::State& state) { run_single_token_body(state); }
BENCHMARK(BM_BitonicFetchAdd)
    ->Setup(setup_bitonic_plan)
    ->Teardown(teardown_backend)
    ->Arg(8)
    ->Arg(32)
    ->ThreadRange(1, 8)
    ->UseRealTime();

/// Batched plan API: range(1) tokens per count_batch call.
void BM_BitonicFetchAddBatch(benchmark::State& state) {
  const auto tid = static_cast<std::uint32_t>(state.thread_index());
  std::vector<std::uint64_t> values(static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) {
    g_backend->count_batch(tid, values);
    benchmark::DoNotOptimize(values.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(1));
}
BENCHMARK(BM_BitonicFetchAddBatch)
    ->Setup(setup_bitonic_plan)
    ->Teardown(teardown_backend)
    ->Args({32, 16})
    ->Args({32, 64})
    ->ThreadRange(1, 8)
    ->UseRealTime();

void BM_Periodic(benchmark::State& state) { run_single_token_body(state); }
BENCHMARK(BM_Periodic)
    ->Setup(setup_periodic_plan)
    ->Teardown(teardown_backend)
    ->Arg(16)
    ->Arg(32)
    ->ThreadRange(1, 8)
    ->UseRealTime();

void BM_CountingTree(benchmark::State& state) { run_single_token_body(state); }
BENCHMARK(BM_CountingTree)
    ->Setup(setup_tree)
    ->Teardown(teardown_backend)
    ->Arg(32)
    ->ThreadRange(1, 8)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
