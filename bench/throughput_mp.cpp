// mp count() throughput — the BENCH_mp series (scripts/bench_json.sh).
// Every configuration is a BackendSpec string through the run:: harness; the
// benchmark threads are the service's clients, the spec's `actors=` workers
// drain the mailboxes. A send is one mailbox exchange (the token's own cell
// is the node) plus one run-queue CAS, with wake syscalls only when a worker
// actually sleeps, so the interesting range is high client counts. (The
// series keep their `LockFree` names so earlier BENCH_mp.json records line
// up.)
#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "run/backend.h"

namespace {

using namespace cnet;

std::unique_ptr<run::CountingBackend> g_backend;

void teardown_backend(const benchmark::State&) { g_backend.reset(); }

void rebuild_backend(const std::string& spec_text) {
  g_backend = run::make_backend(run::parse_spec_or_die(spec_text));
}

void setup_bitonic_lockfree(const benchmark::State& state) {
  rebuild_backend("mp:bitonic:" + std::to_string(state.range(0)) + "?actors=2");
}

void setup_tree_lockfree(const benchmark::State& state) {
  rebuild_backend("mp:tree:" + std::to_string(state.range(0)) + "?actors=2");
}

void run_count_body(benchmark::State& state) {
  const auto tid = static_cast<std::uint32_t>(state.thread_index());
  for (auto _ : state) {
    benchmark::DoNotOptimize(g_backend->count(tid));
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_MpLockFree(benchmark::State& state) { run_count_body(state); }
BENCHMARK(BM_MpLockFree)
    ->Setup(setup_bitonic_lockfree)
    ->Teardown(teardown_backend)
    ->Arg(32)
    ->ThreadRange(1, 8)
    ->UseRealTime();

void BM_MpTreeLockFree(benchmark::State& state) { run_count_body(state); }
BENCHMARK(BM_MpTreeLockFree)
    ->Setup(setup_tree_lockfree)
    ->Teardown(teardown_backend)
    ->Arg(16)
    ->ThreadRange(1, 8)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
