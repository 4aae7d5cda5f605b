// Link-transport throughput: the BENCH_svc pipeline series
// (scripts/bench_json.sh). BM_LinkPingPong prices one credit-based shm
// link round trip in isolation — a request frag published into one ring,
// echoed back through a second by a peer thread — so the deployment
// numbers below have a transport-only floor to stand on.
// BM_DeployRtPipeline/{1,2,4} is one complete pipelined deployment per
// iteration (fork ingress/counter/record tiles, stream kPipeOps batched
// requests over shm links through the workspace-resident plan, merge and
// check; boot cost included); docs/EXPERIMENTS.md interprets it against
// BM_DeployRtTiles.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>

#include "deploy/counter_deploy.h"
#include "link/ring.h"
#include "run/backend_spec.h"

namespace {

using namespace cnet;

/// A 64-byte-aligned heap region sized for `o`.
struct Region {
  std::unique_ptr<std::byte[]> store;
  void* mem = nullptr;
  std::uint64_t size = 0;

  explicit Region(const link::RingOptions& o) {
    size = link::Ring::footprint(o);
    store.reset(new std::byte[size + link::Ring::align()]);
    const auto raw = reinterpret_cast<std::uintptr_t>(store.get());
    mem = reinterpret_cast<void*>((raw + link::Ring::align() - 1) &
                                  ~(link::Ring::align() - 1));
  }
};

/// One full round trip per iteration: publish a 16-byte frag into the
/// request ring, an echo thread reflects it into the response ring, drain
/// it back. items/s = round trips; the deployment's per-request link cost
/// is two of these legs minus the pipelining the real topology overlaps.
void BM_LinkPingPong(benchmark::State& state) {
  link::RingOptions o;
  o.depth = 128;
  o.burst = 32;
  o.mtu = 64;
  Region req_mem(o), res_mem(o);
  link::Ring req, res;
  std::string error;
  if (!link::Ring::create(req_mem.mem, req_mem.size, o, &req, &error) ||
      !link::Ring::create(res_mem.mem, res_mem.size, o, &res, &error)) {
    state.SkipWithError(error.c_str());
    return;
  }

  std::thread echo([&req, &res] {
    link::Consumer c = req.consumer();
    std::uint64_t buf[8];
    while (true) {
      link::Frag meta;
      const auto st = c.read(&meta, buf, sizeof(buf));
      if (st == link::Consumer::Poll::kEmpty) {
        std::this_thread::yield();
        continue;
      }
      c.advance();
      if (meta.ctl != 0) return;  // stop frag
      res.send(meta.sig, buf, meta.sz, 0, nullptr);
    }
  });

  link::Consumer back = res.consumer();
  std::uint64_t payload[2] = {0, 0};
  std::uint64_t buf[8];
  std::uint64_t seq = 0;
  for (auto _ : state) {
    payload[0] = seq;
    req.send(seq, payload, sizeof(payload), 0, nullptr);
    link::Frag meta;
    while (back.read(&meta, buf, sizeof(buf)) != link::Consumer::Poll::kFrag) {
      std::this_thread::yield();
    }
    back.advance();
    benchmark::DoNotOptimize(buf[0]);
    ++seq;
  }
  req.send(0, nullptr, 0, /*ctl=*/1, nullptr);
  echo.join();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LinkPingPong)->UseRealTime();

// --- pipelined deployment ---------------------------------------------------

constexpr std::uint64_t kPipeOps = 100000;
constexpr std::uint32_t kPipeBatch = 16;

deploy::DeployOptions pipeline_options(std::uint32_t streams) {
  deploy::DeployOptions options;
  options.spec = run::parse_spec_or_die("rt:bitonic:8?threads=64&ws=bench-pipe");
  options.tiles = streams;
  options.threads_per_tile = 1;
  options.pipeline = true;
  options.total_ops = kPipeOps;
  options.batch = kPipeBatch;
  return options;
}

/// One full pipelined deployment per iteration: ingress tiles batch
/// requests into shm links, the counter tile drains them through the
/// shared plan, the record tile commits histories. Boot cost included,
/// exactly like BM_DeployRtTiles.
void BM_DeployRtPipeline(benchmark::State& state) {
  const deploy::DeployOptions options =
      pipeline_options(static_cast<std::uint32_t>(state.range(0)));
  for (auto _ : state) {
    const deploy::DeployReport report = deploy::run_pipeline_deployment(options);
    if (!report.ok) {
      state.SkipWithError(report.error.empty() ? report.counting_message.c_str()
                                               : report.error.c_str());
      return;
    }
    benchmark::DoNotOptimize(report.ops_recorded);
  }
  state.SetItemsProcessed(state.iterations() * kPipeOps);
}
BENCHMARK(BM_DeployRtPipeline)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
