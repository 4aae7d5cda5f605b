// Observability overhead: the cost of docs/OBSERVABILITY.md, measured.
//
// Each benchmark pair runs the same Bitonic[32] compiled-plan workload with
// the metrics sink detached (the PR-1 hot path: one untaken [[unlikely]]
// branch per token) and attached at increasing instrumentation levels:
// default 1/64 sampling, full sampling (every token timed), and full
// sampling plus the trace ring. The deltas are the numbers quoted in
// docs/OBSERVABILITY.md; re-measure with scripts/bench_json.sh after
// touching the rt hot path or the obs recording primitives.
//
// Setup()/Teardown() hooks run on the main thread before/after the
// benchmark threads exist (see throughput_rt.cpp for why the state must not
// be rebuilt inside the body).
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "obs/backend_metrics.h"
#include "rt/network_counter.h"
#include "topo/builders.h"

namespace {

using namespace cnet;

std::unique_ptr<obs::CounterMetrics> g_metrics;
std::unique_ptr<rt::NetworkCounter> g_counter;

/// sample_period == 0 means "no metrics attached at all".
void setup_counter(std::uint32_t width, std::uint32_t sample_period, bool trace) {
  rt::CounterOptions options;
  if (sample_period != 0) {
    g_metrics = std::make_unique<obs::CounterMetrics>();
    g_metrics->sample_period = sample_period;
    if (trace) g_metrics->trace.enable();
    options.metrics = g_metrics.get();
  }
  g_counter = std::make_unique<rt::NetworkCounter>(topo::make_bitonic(width), options);
}

void teardown(const benchmark::State&) {
  g_counter.reset();
  g_metrics.reset();
}

void run_single_token_body(benchmark::State& state) {
  const auto tid = static_cast<std::uint32_t>(state.thread_index());
  for (auto _ : state) {
    benchmark::DoNotOptimize(g_counter->next(tid));
  }
  state.SetItemsProcessed(state.iterations());
}

// --- compiled plan, single tokens ---------------------------------------

void setup_plan_off(const benchmark::State& state) {
  setup_counter(static_cast<std::uint32_t>(state.range(0)), 0, false);
}
void setup_plan_sampled(const benchmark::State& state) {
  setup_counter(static_cast<std::uint32_t>(state.range(0)), 64, false);
}
void setup_plan_full(const benchmark::State& state) {
  setup_counter(static_cast<std::uint32_t>(state.range(0)), 1, false);
}
void setup_plan_traced(const benchmark::State& state) {
  setup_counter(static_cast<std::uint32_t>(state.range(0)), 1, true);
}

/// Baseline: metrics pointer null — the uninstrumented PR-1 fast path.
void BM_PlanObsOff(benchmark::State& state) { run_single_token_body(state); }
BENCHMARK(BM_PlanObsOff)
    ->Setup(setup_plan_off)
    ->Teardown(teardown)
    ->Arg(32)
    ->ThreadRange(1, 8)
    ->UseRealTime();

/// Default configuration: one RMW (the token clock) on every token, clocks
/// on every 64th; visits are read from the balancer state, not recorded.
void BM_PlanObsSampled(benchmark::State& state) { run_single_token_body(state); }
BENCHMARK(BM_PlanObsSampled)
    ->Setup(setup_plan_sampled)
    ->Teardown(teardown)
    ->Arg(32)
    ->ThreadRange(1, 8)
    ->UseRealTime();

/// Worst case: every token timed (sample_period = 1), two clock reads and
/// two histogram records per hop/op.
void BM_PlanObsFull(benchmark::State& state) { run_single_token_body(state); }
BENCHMARK(BM_PlanObsFull)
    ->Setup(setup_plan_full)
    ->Teardown(teardown)
    ->Arg(32)
    ->ThreadRange(1, 8)
    ->UseRealTime();

/// Worst case plus the flight recorder: every sampled hop also appends a
/// 32-byte event to the shard's trace ring.
void BM_PlanObsTraced(benchmark::State& state) { run_single_token_body(state); }
BENCHMARK(BM_PlanObsTraced)
    ->Setup(setup_plan_traced)
    ->Teardown(teardown)
    ->Arg(32)
    ->ThreadRange(1, 8)
    ->UseRealTime();

// --- compiled plan, batched ---------------------------------------------

void run_batch_body(benchmark::State& state) {
  const auto tid = static_cast<std::uint32_t>(state.thread_index());
  const auto input = tid % g_counter->network().input_width();
  std::vector<std::uint64_t> values(static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) {
    g_counter->next_batch(tid, input, values);
    benchmark::DoNotOptimize(values.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(1));
}

void BM_PlanBatchObsOff(benchmark::State& state) { run_batch_body(state); }
BENCHMARK(BM_PlanBatchObsOff)
    ->Setup(setup_plan_off)
    ->Teardown(teardown)
    ->Args({32, 64})
    ->ThreadRange(1, 8)
    ->UseRealTime();

void BM_PlanBatchObsSampled(benchmark::State& state) { run_batch_body(state); }
BENCHMARK(BM_PlanBatchObsSampled)
    ->Setup(setup_plan_sampled)
    ->Teardown(teardown)
    ->Args({32, 64})
    ->ThreadRange(1, 8)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
