// Throughput of the Def 2.4 analysis itself: the offline checker on the two
// kinds of history it branches on, and the bounded-memory windowed checker.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "lin/checker.h"
#include "util/rng.h"

namespace {

using namespace cnet;

/// Values max(0, t + noise): they repeat, so lin::check takes its sort
/// branch. Lossy runs and hand-made histories look like this.
lin::History make_duplicate_history(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  lin::History h;
  h.reserve(n);
  double t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    t += rng.unit();
    const double dur = rng.unit() * 8.0;
    const auto value =
        static_cast<std::uint64_t>(std::max(0.0, t + (rng.unit() - 0.5) * 20.0));
    h.push_back(lin::Operation{t, t + dur, value, 0});
  }
  return h;
}

/// Shaped like a run::Runner history: 4 closed-loop issuers, each a stream
/// of back-to-back ops, concatenated issuer by issuer. The values are
/// exactly 0..n-1 (the path every complete live run takes): each op's value
/// is the rank of a jittered point inside it, so nearby ops swap values and
/// some come out non-linearizable.
lin::History make_runner_history(std::size_t n, std::uint64_t seed) {
  constexpr std::uint32_t kIssuers = 4;
  Rng rng(seed);
  lin::History h;
  h.reserve(n);
  std::vector<double> point;
  point.reserve(n);
  for (std::uint32_t issuer = 0; issuer < kIssuers; ++issuer) {
    double t = 0.0;
    for (std::size_t i = issuer; i < n; i += kIssuers) {
      const double dur = 1.0 + rng.unit() * 8.0;
      h.push_back(lin::Operation{t, t + dur, 0, issuer});
      point.push_back(t + rng.unit() * dur + (rng.unit() - 0.5) * 8.0);
      t += dur + rng.unit();
    }
  }
  std::vector<std::size_t> by_point(n);
  std::iota(by_point.begin(), by_point.end(), std::size_t{0});
  std::sort(by_point.begin(), by_point.end(),
            [&](std::size_t a, std::size_t b) { return point[a] < point[b]; });
  for (std::size_t rank = 0; rank < n; ++rank) h[by_point[rank]].value = rank;
  return h;
}

void offline_check(benchmark::State& state, const lin::History& h) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(lin::check(h).nonlinearizable_ops);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_OfflineCheckPermutation(benchmark::State& state) {
  offline_check(state, make_runner_history(static_cast<std::size_t>(state.range(0)), 42));
}
BENCHMARK(BM_OfflineCheckPermutation)->Range(1 << 10, 1 << 20);

void BM_OfflineCheckDuplicates(benchmark::State& state) {
  offline_check(state, make_duplicate_history(static_cast<std::size_t>(state.range(0)), 42));
}
BENCHMARK(BM_OfflineCheckDuplicates)->Range(1 << 10, 1 << 20);

void BM_WindowedCheck(benchmark::State& state) {
  lin::History h = make_duplicate_history(static_cast<std::size_t>(state.range(0)), 42);
  std::sort(h.begin(), h.end(),
            [](const lin::Operation& a, const lin::Operation& b) { return a.end < b.end; });
  for (auto _ : state) {
    lin::WindowedChecker checker(10.0);
    for (const auto& op : h) checker.add(op);
    checker.finish();
    benchmark::DoNotOptimize(checker.nonlinearizable_ops());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_WindowedCheck)->Range(1 << 10, 1 << 18);

void BM_ValuesFormRange(benchmark::State& state) {
  lin::History h;
  const auto n = static_cast<std::uint64_t>(state.range(0));
  // An odd multiplier permutes 0..n-1 when n is a power of two, so this
  // times the passing check, the one every complete run pays.
  for (std::uint64_t i = 0; i < n; ++i) {
    h.push_back(lin::Operation{0.0, 1.0, (i * 2654435761u) % n, 0});
  }
  std::string msg;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lin::values_form_range(h, &msg));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ValuesFormRange)->Range(1 << 10, 1 << 20);

}  // namespace

BENCHMARK_MAIN();
