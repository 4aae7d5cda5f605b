// mp runtime + service behaviour: per-actor FIFO, message counts that match
// the topology, and counting-property values equal to the sequential
// reference (topo::SequentialRouter), for single tokens and for waves. The
// steady-state suites pin the allocation guarantees of mp's one pool: cell
// slabs stop growing once warm and under client-thread churn, and a slab
// spreads its cells over libstdc++'s atomic-wait buckets.
#include "mp/network_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <barrier>
#include <condition_variable>
#include <iterator>
#include <mutex>
#include <thread>
#include <vector>

#include "mp/actor_runtime.h"
#include "mp/response_cell.h"
#include "obs/backend_metrics.h"
#include "sched/trace.h"
#include "topo/builders.h"

namespace cnet::mp {
namespace {

TEST(MpActorRuntime, DeliversInOrderPerActor) {
  // The caller owns every node until its actor pops it: declared before the
  // runtime, the nodes outlive its workers.
  std::vector<MpscNode> nodes(1002);
  ActorRuntime runtime(2);
  std::vector<std::uint64_t> seen;
  const ActorId actor = runtime.add_actor([&seen](ActorId, const Message& message) {
    seen.push_back(message.payload);  // serialized per actor: no lock needed
  });
  std::mutex done_mutex;
  std::condition_variable done_cv;
  bool done = false;
  const ActorId finisher = runtime.add_actor([&](ActorId, const Message&) {
    const std::scoped_lock lock(done_mutex);
    done = true;
    done_cv.notify_one();
  });
  runtime.start();
  for (std::uint64_t i = 0; i <= 1000; ++i) {
    nodes[i].msg = Message{i, nullptr};
    runtime.send(actor, &nodes[i]);
  }
  // Sends from one thread to one actor are FIFO; we only need all of them
  // processed before asserting, so poll the counter then ring the finisher.
  while (runtime.messages_processed() < 1001) std::this_thread::yield();
  runtime.send(finisher, &nodes[1001]);
  {
    std::unique_lock lock(done_mutex);
    done_cv.wait(lock, [&done] { return done; });
  }
  ASSERT_EQ(seen.size(), 1001u);
  for (std::uint64_t i = 0; i <= 1000; ++i) EXPECT_EQ(seen[i], i);
}

TEST(MpActorRuntime, CountsProcessedMessages) {
  std::vector<MpscNode> nodes(50);
  ActorRuntime runtime(1);
  const ActorId sink = runtime.add_actor([](ActorId, const Message&) {});
  runtime.start();
  for (MpscNode& node : nodes) runtime.send(sink, &node);
  while (runtime.messages_processed() < 50) std::this_thread::yield();
  EXPECT_EQ(runtime.messages_processed(), 50u);
}

TEST(MpActorRuntime, ManyProducersOneConsumerKeepPerProducerOrder) {
  constexpr std::uint64_t kProducers = 4;
  constexpr std::uint64_t kPerProducer = 3000;
  // Each producer owns a disjoint slice of the nodes.
  std::vector<MpscNode> nodes(kProducers * kPerProducer);
  ActorRuntime runtime(2);
  // payload = producer * kPerProducer + sequence; the single actor must see
  // each producer's sequence ascending even though arrivals interleave.
  std::vector<std::uint64_t> next_expected(kProducers, 0);
  std::uint64_t violations = 0;
  const ActorId actor = runtime.add_actor([&](ActorId, const Message& message) {
    const std::uint64_t producer = message.payload / kPerProducer;
    const std::uint64_t seq = message.payload % kPerProducer;
    if (seq != next_expected[producer]) ++violations;
    next_expected[producer] = seq + 1;
  });
  runtime.start();
  {
    std::vector<std::jthread> producers;
    for (std::uint64_t p = 0; p < kProducers; ++p) {
      producers.emplace_back([&runtime, &nodes, actor, p] {
        for (std::uint64_t i = 0; i < kPerProducer; ++i) {
          MpscNode& node = nodes[p * kPerProducer + i];
          node.msg = Message{p * kPerProducer + i, nullptr};
          runtime.send(actor, &node);
        }
      });
    }
  }
  while (runtime.messages_processed() < kProducers * kPerProducer) std::this_thread::yield();
  EXPECT_EQ(violations, 0u);
  for (std::uint64_t p = 0; p < kProducers; ++p) EXPECT_EQ(next_expected[p], kPerProducer);
}

TEST(MpNetworkService, SequentialCountsMatchReference) {
  const topo::Network net = topo::make_bitonic(8);
  NetworkService service(net, {.workers = 2});
  topo::SequentialRouter reference(net);
  for (int i = 0; i < 200; ++i) {
    const auto input = static_cast<std::uint32_t>(i % 8);
    EXPECT_EQ(service.count(input), reference.next_value(input));
  }
}

TEST(MpNetworkService, MessageCountMatchesTopology) {
  // Every operation generates exactly depth+1 messages in a uniform network
  // (one per balancer hop plus the counter delivery) — for the bitonic all
  // paths have equal length = depth.
  const topo::Network net = topo::make_bitonic(4);
  NetworkService service(net, {.workers = 1});
  const int ops = 100;
  for (int i = 0; i < ops; ++i) service.count(static_cast<std::uint32_t>(i % 4));
  // The processed counter is incremented after the handler returns, which
  // races the client wakeup from inside the final handler: poll briefly.
  const auto expected = static_cast<std::uint64_t>(ops) * (net.depth() + 1);
  while (service.messages_processed() < expected) std::this_thread::yield();
  EXPECT_EQ(service.messages_processed(), expected);
}

TEST(MpNetworkService, DelayedCountsStillCountCorrectly) {
  // count_delayed carries the paper's W inside the token message; the busy
  // wait must not perturb the values (only the timing).
  const topo::Network net = topo::make_bitonic(4);
  NetworkService service(net, {.workers = 2});
  topo::SequentialRouter reference(net);
  for (int i = 0; i < 50; ++i) {
    const auto input = static_cast<std::uint32_t>(i % 4);
    EXPECT_EQ(service.count_delayed(input, /*wait_ns=*/500), reference.next_value(input));
  }
}

// A wave of c tokens is one message that every balancer actor splits by its
// own count: entering a quiescent network it collects the values c
// sequential count() calls return — the same set on every counting
// network, and cell for cell on a tree, where every actor sees the wave as
// one message. Even batches go through count_begin_batch (the svc path),
// odd ones through the blocking count_batch, which returns them ascending.
TEST(MpNetworkService, WaveMatchesSequentialRouter) {
  struct Shape {
    const char* name;
    topo::Network net;
    bool tree;
  };
  const Shape shapes[] = {
      {"bitonic[8]", topo::make_bitonic(8), false},
      {"periodic[8]", topo::make_periodic(8), false},
      {"tree[8]", topo::make_counting_tree(8), true},
      {"tree[16]", topo::make_counting_tree(16), true},
      {"kary(3,2)", topo::make_kary_tree(3, 2), true},
      {"bitonic[32]", topo::make_bitonic(32), false},
  };
  const std::uint32_t sizes[] = {1, 2, 3, 16, 64, 5, 2, 33, 100};
  for (const Shape& shape : shapes) {
    SCOPED_TRACE(shape.name);
    NetworkService service(shape.net, {.workers = 2});
    topo::SequentialRouter reference(shape.net);
    for (std::uint32_t k = 0; k < std::size(sizes); ++k) {
      const std::uint32_t input = (5 * k + 3) % shape.net.input_width();
      std::vector<std::uint64_t> expected(sizes[k]);
      for (std::uint64_t& value : expected) value = reference.next_value(input);
      std::vector<std::uint64_t> got(sizes[k]);
      if (k % 2 == 0) {
        std::vector<NetworkService::Pending> wave(sizes[k]);
        service.count_begin_batch(input, wave);
        for (std::size_t j = 0; j < wave.size(); ++j) got[j] = service.count_collect(wave[j]);
        if (!shape.tree) {
          std::sort(expected.begin(), expected.end());
          std::sort(got.begin(), got.end());
        }
      } else {
        service.count_batch(input, got);
        std::sort(expected.begin(), expected.end());
      }
      EXPECT_EQ(got, expected) << "batch " << k << " of " << sizes[k];
    }
  }
}

TEST(MpNetworkService, WaveSendsOneMessagePerReachedActor) {
  // A wave of 64 on tree[8] reaches all 7 balancers and all 8 counters
  // with one message each; as 64 single tokens it would take 64 * 4.
  const topo::Network net = topo::make_counting_tree(8);
  NetworkService service(net, {.workers = 2});
  const std::uint64_t before = service.messages_processed();
  std::vector<std::uint64_t> values(64);
  service.count_batch(0, values);
  for (std::uint64_t i = 0; i < values.size(); ++i) EXPECT_EQ(values[i], i);
  // The processed counter is bumped after each turn: poll, then pin.
  const std::uint64_t expected = before + net.node_count() + net.output_width();
  ASSERT_EQ(expected, before + 15);
  while (service.messages_processed() < expected) std::this_thread::yield();
  EXPECT_EQ(service.messages_processed(), expected);
}

TEST(MpNetworkService, WaveFallsBackToTokensUnderCapture) {
  // Recorder hops are per token: with capture on, a batch travels as one
  // message per token so every token records its whole path.
  const topo::Network net = topo::make_bitonic(8);
  NetworkService service(net, {.workers = 2});
  sched::Recorder recorder;
  service.set_recorder(&recorder);
  std::vector<std::uint64_t> values(8);
  service.count_batch(0, values);
  for (std::uint64_t i = 0; i < values.size(); ++i) EXPECT_EQ(values[i], i);
  service.set_recorder(nullptr);
  const sched::Trace trace = recorder.finish({}, "", "");
  ASSERT_EQ(trace.tokens.size(), 8u);
  std::size_t hops = 0;
  for (const sched::TokenRecord& token : trace.tokens) hops += token.hops.size();
  EXPECT_EQ(hops, 8u * net.depth());
}

/// Param = topology * 2 + worker variant: the uniqueness sweep covers every
/// (bitonic, periodic, tree) x (3 workers, 1 worker) cell. One worker puts
/// every queued turn on a single run-queue shard, with no stealing.
class MpTopologies : public ::testing::TestWithParam<int> {};

TEST_P(MpTopologies, ConcurrentClientsGetUniqueValues) {
  const int topology = GetParam() / 2;
  const std::uint32_t workers = GetParam() % 2 == 0 ? 3 : 1;
  const topo::Network net = topology == 0   ? topo::make_bitonic(8)
                            : topology == 1 ? topo::make_periodic(8)
                                            : topo::make_counting_tree(8);
  NetworkService service(net, {.workers = workers});
  const unsigned clients = 4;
  const int per_client = 2000;
  std::vector<std::vector<std::uint64_t>> values(clients);
  {
    std::vector<std::jthread> threads;
    for (unsigned c = 0; c < clients; ++c) {
      threads.emplace_back([&service, &mine = values[c], &net, c] {
        for (int i = 0; i < per_client; ++i) {
          mine.push_back(service.count(c % net.input_width()));
        }
      });
    }
  }
  std::vector<std::uint64_t> all;
  for (auto& v : values) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  ASSERT_EQ(all.size(), static_cast<std::size_t>(clients) * per_client);
  for (std::uint64_t i = 0; i < all.size(); ++i) ASSERT_EQ(all[i], i);
}

INSTANTIATE_TEST_SUITE_P(Cells, MpTopologies, ::testing::Range(0, 6));

TEST(MpSteadyState, PoolSlabsStopGrowingOnceWarm) {
  // mp's one pool is the response-cell slabs. A client takes a cell from
  // its thread cache at issue and puts it back at collect, and each wave's
  // head cell is its own mailbox node, so once every client has run one
  // round no later round adds a slab or a cell.
  const topo::Network net = topo::make_bitonic(8);
  NetworkService service(net, {.workers = 2});
  constexpr unsigned kClients = 4;
  constexpr int kRoundOps = 2000;
  constexpr int kSteadyRounds = 5;
  // The client threads stay alive across the snapshots (their caches are
  // thread-local); main joins the barrier to read the pool between rounds,
  // while no operation is in flight.
  std::barrier sync(kClients + 1);
  std::vector<ResponseCellCache::PoolStats> stats;
  std::vector<std::uint64_t> created;
  {
    std::vector<std::jthread> clients;
    for (unsigned c = 0; c < kClients; ++c) {
      clients.emplace_back([&service, &sync, c] {
        for (int round = 0; round <= kSteadyRounds; ++round) {  // round 0 warms up
          for (int i = 0; i < kRoundOps; ++i) service.count(c % 8);
          sync.arrive_and_wait();
          sync.arrive_and_wait();
        }
      });
    }
    for (int round = 0; round <= kSteadyRounds; ++round) {
      sync.arrive_and_wait();  // this round's ops complete, none in flight
      stats.push_back(service.pool_stats());
      created.push_back(ResponseCellCache::cells_created());
      sync.arrive_and_wait();
    }
  }
  EXPECT_GT(stats[0].slabs, 0u);
  for (int round = 1; round <= kSteadyRounds; ++round) {
    EXPECT_EQ(stats[round].slabs, stats[0].slabs)
        << "hot path allocated at steady state, round " << round;
    EXPECT_EQ(created[round], created[0]) << "round " << round;
  }
}

TEST(MpSteadyState, ClientThreadChurnGrowsNoSlabs) {
  // 200 short-lived clients of 4 count() calls each. An exiting thread
  // donates its cached cells to the pool and the next thread takes them up,
  // so thread churn alone adds no slab.
  const topo::Network net = topo::make_bitonic(8);
  NetworkService service(net, {.workers = 2});
  std::jthread([&service] {
    for (std::uint32_t i = 0; i < 4; ++i) service.count(i);
  }).join();
  const std::uint64_t slabs = service.pool_stats().slabs;
  const std::uint64_t created = ResponseCellCache::cells_created();
  for (std::uint32_t round = 0; round < 200; ++round) {
    std::jthread([&service, round] {
      for (std::uint32_t i = 0; i < 4; ++i) service.count((round + i) % 8);
    }).join();
  }
  EXPECT_EQ(service.pool_stats().slabs, slabs) << "exiting clients stranded pool storage";
  EXPECT_EQ(ResponseCellCache::cells_created(), created);
}

TEST(MpSteadyState, SlabCellsSpreadOverTheAtomicWaitBuckets) {
  // libstdc++ parks a 64-bit atomic wait in one of 16 buckets, picked as
  // (address >> 2) % 16, and a notify wakes the whole bucket. Cells sit in
  // slabs at a 40-byte stride, so any eight neighbours start at eight
  // distinct offsets mod 64; the slot lies at one fixed offset in every
  // cell, so the slots cover as many buckets as the cells. 4,096 cells
  // taken on a fresh thread include at least one whole slab.
  std::array<bool, 16> hit{};
  std::jthread([&hit] {
    std::vector<ResponseCell*> cells;
    for (int i = 0; i < 4096; ++i) cells.push_back(ResponseCellCache::acquire());
    for (ResponseCell* cell : cells) {
      hit[(reinterpret_cast<std::uintptr_t>(cell) >> 2) % hit.size()] = true;
      ResponseCellCache::release(cell);
    }
  }).join();
  EXPECT_GE(std::count(hit.begin(), hit.end(), true), 8);
}

TEST(MpSteadyState, ResponseCellsAreRecycledPerThread) {
  const topo::Network net = topo::make_bitonic(4);
  NetworkService service(net, {.workers = 2});
  service.count(0);  // this thread's first operation may create its one cell
  const std::uint64_t before = ResponseCellCache::cells_created();
  for (int i = 0; i < 1000; ++i) service.count(static_cast<std::uint32_t>(i % 4));
  EXPECT_EQ(ResponseCellCache::cells_created(), before)
      << "count() constructed response cells at steady state";
}

TEST(MpSteadyState, ResponseCellsSurviveThreadChurn) {
  // Short-lived client threads are the risky regime for the futex protocol:
  // a waiter can leave await() via the spin loop and its thread can exit
  // while the completer's notify_one is still in flight. Cells must outlive
  // the exiting thread (the TLS cache donates them to the process-wide
  // pool), and later threads must adopt those cells instead of constructing
  // fresh ones. ASan/LSan in CI vets the lifetime half; the creation count
  // here pins the adoption half.
  const topo::Network net = topo::make_bitonic(4);
  NetworkService service(net, {.workers = 2});
  std::jthread([&service] { service.count(0); }).join();  // donor warm-up
  const std::uint64_t before = ResponseCellCache::cells_created();
  const ResponseCellCache::PoolStats pool_before = ResponseCellCache::pool_stats();
  for (int round = 0; round < 50; ++round) {
    std::jthread([&service, round] {
      for (int i = 0; i < 20; ++i) service.count(static_cast<std::uint32_t>((round + i) % 4));
    }).join();  // thread exit donates its cells back to the pool
  }
  EXPECT_EQ(ResponseCellCache::cells_created(), before)
      << "exiting clients leaked cells instead of donating them for adoption";
  // The pool's lifecycle counters show the actual circulation: every round
  // adopted the donor's cells and donated them back on exit.
  const ResponseCellCache::PoolStats pool_after = ResponseCellCache::pool_stats();
  EXPECT_GE(pool_after.adoptions, pool_before.adoptions + 50);
  EXPECT_GE(pool_after.thread_donations, pool_before.thread_donations + 50);
  EXPECT_GT(pool_after.free_cells, 0u);
}

TEST(MpObsIntegration, MetricsMatchMessageFlow) {
  const topo::Network net = topo::make_bitonic(4);
  obs::MpMetrics metrics;
  NetworkService service(net, {.workers = 2, .metrics = &metrics});
  constexpr std::uint64_t kOps = 200;
  for (std::uint64_t i = 0; i < kOps; ++i) {
    service.count(static_cast<std::uint32_t>(i % net.input_width()));
  }
  const auto expected = kOps * (net.depth() + 1);
  while (service.messages_processed() < expected) std::this_thread::yield();

  EXPECT_EQ(metrics.tokens.value(), kOps);
  EXPECT_EQ(metrics.count_latency_ns.total(), kOps);
  // Uniform network: each operation is depth balancer hops plus one counter
  // delivery, and the per-actor breakdown sums to the same totals.
  EXPECT_EQ(metrics.node_visits.value(), kOps * net.depth());
  EXPECT_EQ(metrics.counter_visits.value(), kOps);
  const auto node_count = static_cast<std::uint32_t>(net.node_count());
  std::uint64_t node_total = 0;
  std::uint64_t counter_total = 0;
  const std::vector<std::uint64_t> per_actor = metrics.actor_visits.values();
  ASSERT_EQ(per_actor.size(), node_count + net.output_width());
  for (std::uint32_t a = 0; a < per_actor.size(); ++a) {
    (a < node_count ? node_total : counter_total) += per_actor[a];
  }
  EXPECT_EQ(node_total, kOps * net.depth());
  EXPECT_EQ(counter_total, kOps);
  // Every enqueue observed a mailbox depth (clients + forwarded tokens).
  // The depth values are approximate (relaxed sharded counter) but the
  // sample count is exact: one per send.
  EXPECT_EQ(metrics.queue_depth.total(), kOps * (net.depth() + 1));
}

// The visit counts are read from the actors' own counts: the service's
// destructor must leave the final totals in the sink.
TEST(MpObsIntegration, SinkKeepsFinalCountsAfterTheServiceIsGone) {
  const topo::Network net = topo::make_bitonic(4);
  obs::MpMetrics metrics;
  constexpr std::uint64_t kOps = 200;
  {
    NetworkService service(net, {.workers = 2, .metrics = &metrics});
    for (std::uint64_t i = 0; i < kOps; ++i) {
      service.count(static_cast<std::uint32_t>(i % net.input_width()));
    }
  }
  EXPECT_EQ(metrics.node_visits.value(), kOps * net.depth());
  const std::vector<std::uint64_t> per_actor = metrics.actor_visits.values();
  ASSERT_EQ(per_actor.size(), net.node_count() + net.output_width());
  std::uint64_t total = 0;
  for (const std::uint64_t n : per_actor) total += n;
  EXPECT_EQ(total, kOps * (net.depth() + 1));
}

TEST(MpObsIntegration, LiveActorReadsNeverGoBackwards) {
  const topo::Network net = topo::make_bitonic(4);
  obs::MpMetrics metrics;
  NetworkService service(net, {.workers = 2, .metrics = &metrics});

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> reads{0};
  std::uint64_t regressions = 0;
  std::jthread reader([&] {
    std::vector<std::uint64_t> last(net.node_count() + net.output_width(), 0);
    do {
      const std::vector<std::uint64_t> now = metrics.actor_visits.values();
      for (std::size_t i = 0; i < now.size(); ++i) regressions += now[i] < last[i] ? 1 : 0;
      last = now;
      reads.fetch_add(1);
    } while (!done.load());
  });
  while (reads.load() == 0) std::this_thread::yield();  // reads overlap the run
  {
    std::vector<std::jthread> clients;
    for (std::uint32_t c = 0; c < 4; ++c) {
      clients.emplace_back([&service, &net, c] {
        for (int i = 0; i < 500; ++i) service.count(c % net.input_width());
      });
    }
  }
  done.store(true);
  reader.join();
  EXPECT_EQ(regressions, 0u);
}

}  // namespace
}  // namespace cnet::mp
