// Service throughput over real loopback TCP: the BENCH_svc series
// (scripts/bench_json.sh). The batched/unbatched pairs are the ablation the
// svc layer exists for — the identical epoll loop, protocol, and client
// pattern, differing only in whether one wake's requests are issued against
// the backend in bulk (one next_batch per chunk on rt, one pooled burst of
// mailbox sends on mp) or one at a time.
//
// Each benchmark thread is one TCP connection running a pipelined window:
// per iteration it sends kWindow requests back-to-back, then drains the
// kWindow responses. With 8 connections the server's wakes coalesce up to
// 8 x kWindow requests, which is exactly the boundary the batching
// amortizes. items/s counts individual counting operations; p99_us is the
// per-connection p99 of the full window round trip (averaged across
// connections). BM_SvcMpWindow is the exception: the perfbench svc-window
// shape, one client thread refilling 4 connections x 32 requests in
// flight against one loop, so the loop rather than the client bounds it.
//
// The batched/unbatched pairs pin loops=1 — the historical single-loop
// configuration, so the series stays comparable across revisions — while
// BM_SvcRtLoops/{1,2,4,8} is the event-loop scaling series: the same 8
// pipelined connections spread by SO_REUSEPORT flow hash across N loops
// (docs/EXPERIMENTS.md interprets the shape; the knee sits at the
// machine's core count, so a 1-core runner shows a flat series).
// BM_DeployRtTiles/{1,2,4} is the cross-process series: one complete
// multi-process deployment per iteration — fork the worker tiles, count
// kDeployOps through the workspace-resident plan, merge and check — against
// BM_DeployRtInProc/{2,4,8}, the same plan and op count driven by the same
// total number of plain threads in one process. The gap between the two is
// the price of process isolation (fork/boot, shm attach, the commit-after-
// record history discipline); docs/EXPERIMENTS.md interprets it.
#include <benchmark/benchmark.h>
#include <poll.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "deploy/counter_deploy.h"
#include "rt/network_counter.h"
#include "run/backend.h"
#include "run/workload.h"
#include "svc/client.h"
#include "svc/server.h"
#include "topo/builders.h"

namespace {

using namespace cnet;
using Clock = std::chrono::steady_clock;

constexpr std::uint32_t kWindow = 8;  ///< pipelined requests per iteration

std::unique_ptr<run::CountingBackend> g_backend;
std::unique_ptr<svc::Server> g_server;

void setup_server(const std::string& spec_text, bool batching, std::uint32_t loops) {
  g_backend = run::make_backend(run::parse_spec_or_die(spec_text));
  svc::ServerOptions options;
  options.batching = batching;
  options.loops = loops;
  g_server = std::make_unique<svc::Server>(*g_backend, options);
  std::string error;
  if (!g_server->start(&error)) {
    std::fprintf(stderr, "server start failed: %s\n", error.c_str());
    std::abort();
  }
}

void teardown_server(const benchmark::State&) {
  g_server.reset();
  g_backend.reset();
}

void setup_rt_batched(const benchmark::State&) { setup_server("rt:bitonic:8", true, 1); }
void setup_rt_unbatched(const benchmark::State&) { setup_server("rt:bitonic:8", false, 1); }
void setup_mp_batched(const benchmark::State&) {
  setup_server("mp:tree:8?actors=2", true, 1);
}
void setup_mp_unbatched(const benchmark::State&) {
  setup_server("mp:tree:8?actors=2", false, 1);
}

/// The loops-scaling setup: state.range(0) event loops over an rt backend
/// whose thread-id space (threads=64) slices evenly for every point in the
/// series.
void setup_rt_loops(const benchmark::State& state) {
  setup_server("rt:bitonic:8?threads=64", true,
               static_cast<std::uint32_t>(state.range(0)));
}

double percentile(std::vector<double>* sorted, double q) {
  if (sorted->empty()) return 0.0;
  std::sort(sorted->begin(), sorted->end());
  const auto at = static_cast<std::size_t>(q * static_cast<double>(sorted->size() - 1));
  return (*sorted)[at];
}

void run_window_body(benchmark::State& state) {
  svc::Client client;
  std::string error;
  if (!client.connect("127.0.0.1", g_server->port(), &error)) {
    state.SkipWithError(error.c_str());
    return;
  }
  std::vector<double> window_ns;
  std::uint64_t id = static_cast<std::uint64_t>(state.thread_index()) << 40;
  svc::Response response;
  for (auto _ : state) {
    const Clock::time_point t0 = Clock::now();
    for (std::uint32_t i = 0; i < kWindow; ++i) client.queue_count(id++);
    if (!client.flush(&error)) {
      state.SkipWithError(error.c_str());
      return;
    }
    for (std::uint32_t i = 0; i < kWindow; ++i) {
      if (!client.recv_response(&response, &error)) {
        state.SkipWithError(error.c_str());
        return;
      }
      if (response.status != svc::Status::kOk) {
        state.SkipWithError("non-ok response");
        return;
      }
    }
    window_ns.push_back(std::chrono::duration<double, std::nano>(Clock::now() - t0).count());
  }
  state.SetItemsProcessed(state.iterations() * kWindow);
  state.counters["p99_us"] =
      benchmark::Counter(percentile(&window_ns, 0.99) / 1e3, benchmark::Counter::kAvgThreads);
}

void BM_SvcRtBatched(benchmark::State& state) { run_window_body(state); }
BENCHMARK(BM_SvcRtBatched)
    ->Setup(setup_rt_batched)
    ->Teardown(teardown_server)
    ->Threads(8)
    ->UseRealTime();

void BM_SvcRtUnbatched(benchmark::State& state) { run_window_body(state); }
BENCHMARK(BM_SvcRtUnbatched)
    ->Setup(setup_rt_unbatched)
    ->Teardown(teardown_server)
    ->Threads(8)
    ->UseRealTime();

void BM_SvcMpBatched(benchmark::State& state) { run_window_body(state); }
BENCHMARK(BM_SvcMpBatched)
    ->Setup(setup_mp_batched)
    ->Teardown(teardown_server)
    ->Threads(8)
    ->UseRealTime();

void BM_SvcMpUnbatched(benchmark::State& state) { run_window_body(state); }
BENCHMARK(BM_SvcMpUnbatched)
    ->Setup(setup_mp_unbatched)
    ->Teardown(teardown_server)
    ->Threads(8)
    ->UseRealTime();

constexpr std::uint32_t kMpWindowConns = 4;
constexpr std::uint32_t kMpWindowDepth = 32;  ///< requests in flight per connection
constexpr std::uint64_t kUntilEvery = 4;      ///< every 4th request is kCountUntil
constexpr std::uint64_t kUntilBudgetNs = 50'000'000;  ///< never expires at this load

/// The perfbench svc-window shape on one loop: one client thread keeps
/// kMpWindowConns connections x kMpWindowDepth requests in flight,
/// refilling each connection as its responses arrive. The 8-thread windows
/// above saturate the client side on a 4-vCPU host; here the loop is the
/// bottleneck, so this row moves with the svc layer. One iteration is one
/// poll() and every response it made readable.
void BM_SvcMpWindow(benchmark::State& state) {
  std::array<svc::Client, kMpWindowConns> clients;
  std::array<pollfd, kMpWindowConns> fds{};
  std::array<std::uint32_t, kMpWindowConns> in_flight{};
  std::uint64_t next_id = 0;
  std::int64_t answered = 0;
  std::string error;
  const auto refill = [&](std::size_t c) {
    for (; in_flight[c] < kMpWindowDepth; ++in_flight[c], ++next_id) {
      if (next_id % kUntilEvery == kUntilEvery - 1) {
        clients[c].queue_count_until(next_id, kUntilBudgetNs);
      } else {
        clients[c].queue_count(next_id);
      }
    }
    return clients[c].flush(&error);
  };
  const auto take_responses = [&](std::size_t c) {
    for (;;) {
      svc::Response response;
      bool got = false;
      if (!clients[c].poll_response(&response, &got, &error)) return false;
      if (!got) return true;
      if (response.status != svc::Status::kOk) {
        error = "non-ok response";
        return false;
      }
      --in_flight[c];
      ++answered;
    }
  };
  for (std::size_t c = 0; c < kMpWindowConns; ++c) {
    if (!clients[c].connect("127.0.0.1", g_server->port(), &error) || !refill(c)) {
      state.SkipWithError(error.c_str());
      return;
    }
    fds[c] = pollfd{clients[c].fd(), POLLIN, 0};
  }
  for (auto _ : state) {
    if (::poll(fds.data(), fds.size(), 5000) <= 0) {
      state.SkipWithError("no response within 5 s");
      return;
    }
    for (std::size_t c = 0; c < kMpWindowConns; ++c) {
      if (fds[c].revents == 0) continue;
      if (!take_responses(c) || !refill(c)) {
        state.SkipWithError(error.c_str());
        return;
      }
    }
  }
  state.SetItemsProcessed(answered);
}
BENCHMARK(BM_SvcMpWindow)
    ->Setup(setup_mp_batched)
    ->Teardown(teardown_server)
    ->UseRealTime();

void BM_SvcRtLoops(benchmark::State& state) { run_window_body(state); }
BENCHMARK(BM_SvcRtLoops)
    ->Setup(setup_rt_loops)
    ->Teardown(teardown_server)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Threads(8)
    ->UseRealTime();

// --- cross-process deployment vs in-process threads ------------------------

constexpr std::uint64_t kDeployOps = 100000;
constexpr std::uint32_t kDeployBatch = 16;
constexpr std::uint32_t kThreadsPerTile = 2;

/// One full deployment per iteration: fork tiles, count kDeployOps through
/// the workspace-resident plan, merge and check. Boot cost is part of the
/// measurement — deployments that cannot amortize their fork/attach cost
/// over the run should look expensive here.
void BM_DeployRtTiles(benchmark::State& state) {
  deploy::DeployOptions options;
  options.spec = run::parse_spec_or_die("rt:bitonic:8?threads=64&ws=bench-deploy");
  options.tiles = static_cast<std::uint32_t>(state.range(0));
  options.threads_per_tile = kThreadsPerTile;
  options.total_ops = kDeployOps;
  options.batch = kDeployBatch;
  for (auto _ : state) {
    const deploy::DeployReport report = deploy::run_counter_deployment(options);
    if (!report.ok) {
      state.SkipWithError(report.error.empty() ? report.counting_message.c_str()
                                               : report.error.c_str());
      return;
    }
    benchmark::DoNotOptimize(report.ops_recorded);
  }
  state.SetItemsProcessed(state.iterations() * kDeployOps);
}
BENCHMARK(BM_DeployRtTiles)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

/// The in-process twin: the same plan, op count, and batch size, driven by
/// Arg(0) plain threads in this process (== tiles x threads_per_tile of the
/// matching BM_DeployRtTiles point). No fork, no shm, no history records —
/// the ceiling the deployment pays isolation against.
void BM_DeployRtInProc(benchmark::State& state) {
  const auto n_threads = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    rt::NetworkCounter counter(topo::make_bitonic(8));
    const std::vector<std::uint64_t> quotas = run::issuer_quotas(kDeployOps, n_threads);
    std::vector<std::jthread> threads;
    threads.reserve(n_threads);
    for (std::uint32_t t = 0; t < n_threads; ++t) {
      threads.emplace_back([&counter, quota = quotas[t], t] {
        std::uint64_t values[kDeployBatch];
        for (std::uint64_t done = 0; done < quota;) {
          const auto n = static_cast<std::uint32_t>(
              std::min<std::uint64_t>(kDeployBatch, quota - done));
          counter.next_batch(t, counter.network().issuer_input(t),
                             std::span<std::uint64_t>(values, n));
          done += n;
        }
      });
    }
    threads.clear();  // join
    benchmark::DoNotOptimize(counter.issued());
  }
  state.SetItemsProcessed(state.iterations() * kDeployOps);
}
BENCHMARK(BM_DeployRtInProc)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
