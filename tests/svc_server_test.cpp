// End-to-end service tests on a real ephemeral loopback port: concurrent
// pipelined clients against mp:tree:8 and rt:bitonic:8, with every value
// that crossed the wire fed through the lin:: checker (counting property)
// and the step-property validator; deadline frames driving the mp backend's
// real slot-CAS cancellation; and the admission-control shed paths.
#include "svc/server.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "lin/checker.h"
#include "run/backend.h"
#include "svc/client.h"
#include "topo/validate.h"

namespace cnet::svc {
namespace {

using Clock = std::chrono::steady_clock;

double ns_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

/// Drives `clients` concurrent connections, each issuing `ops` plain counts
/// in pipelined windows of `window`, and returns the merged history. Window
/// operations share the window's start/end times, the same convention as
/// the runner's batched issue.
lin::History run_clients(std::uint16_t port, std::uint32_t clients, std::uint32_t ops,
                         std::uint32_t window, const std::string& uds = "") {
  lin::History merged;
  std::mutex merge_mutex;
  const Clock::time_point t0 = Clock::now();
  std::vector<std::jthread> threads;
  threads.reserve(clients);
  for (std::uint32_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Client client;
      std::string error;
      const bool connected = uds.empty() ? client.connect("127.0.0.1", port, &error)
                                         : client.connect_uds(uds, &error);
      ASSERT_TRUE(connected) << error;
      lin::History local;
      local.reserve(ops);
      std::uint64_t id = static_cast<std::uint64_t>(c) << 40;
      for (std::uint32_t done = 0; done < ops;) {
        const std::uint32_t n = std::min(window, ops - done);
        const double start = ns_since(t0);
        for (std::uint32_t i = 0; i < n; ++i) client.queue_count(id++);
        ASSERT_TRUE(client.flush(&error)) << error;
        for (std::uint32_t i = 0; i < n; ++i) {
          Response response;
          ASSERT_TRUE(client.recv_response(&response, &error)) << error;
          ASSERT_EQ(response.status, Status::kOk);
          local.push_back({start, 0.0, response.value, c});
        }
        const double end = ns_since(t0);
        for (std::uint32_t i = 0; i < n; ++i) local[local.size() - 1 - i].end = end;
        done += n;
      }
      const std::lock_guard<std::mutex> lock(merge_mutex);
      merged.insert(merged.end(), local.begin(), local.end());
    });
  }
  threads.clear();  // join
  return merged;
}

/// The over-the-wire correctness battery: counting property (distinct
/// values forming 0..n-1), step property across the network's outputs, and
/// a full Def 2.4 analysis as a sanity pass over the recorded timings.
void check_history(const lin::History& history, std::uint32_t output_width) {
  std::string message;
  EXPECT_TRUE(lin::values_form_range(history, &message)) << message;

  std::vector<std::uint64_t> per_output(output_width, 0);
  for (const lin::Operation& op : history) ++per_output[op.value % output_width];
  EXPECT_TRUE(topo::has_step_property(per_output));

  const lin::CheckResult analysis = lin::check(history);
  EXPECT_EQ(analysis.total_ops, history.size());
  // Counting networks are not linearizable in general; the paper's point is
  // that violations need extreme timing. Window-shared timestamps make this
  // check conservative, but the analysis must at least run cleanly.
  EXPECT_LE(analysis.nonlinearizable_ops, analysis.total_ops);
}

struct ServerUnderTest {
  explicit ServerUnderTest(const std::string& spec, ServerOptions options = {}) {
    backend = run::make_backend(run::parse_spec_or_die(spec));
    server = std::make_unique<Server>(*backend, options);
    std::string error;
    started = server->start(&error);
    start_error = error;
  }
  std::unique_ptr<run::CountingBackend> backend;  // outlives the server
  std::unique_ptr<Server> server;
  bool started = false;
  std::string start_error;
};

TEST(SvcServer, EndToEndMpTree8) {
  ServerUnderTest s("mp:tree:8?actors=2");
  ASSERT_TRUE(s.started) << s.start_error;
  const lin::History history = run_clients(s.server->port(), 4, 300, 8);
  ASSERT_EQ(history.size(), 1200u);
  check_history(history, s.backend->network().output_width());
  const Server::Stats stats = s.server->stats();
  EXPECT_EQ(stats.requests, 1200u);
  EXPECT_EQ(stats.responses_ok, 1200u);
  EXPECT_EQ(stats.protocol_errors, 0u);
  EXPECT_GE(stats.largest_batch, 1u);
}

TEST(SvcServer, MpChunksTravelAsWaves) {
  // One loop, as the documented serve config runs: each window of 32
  // requests arrives in one wake and its chunk crosses tree[8] as one wave,
  // at most 15 messages (7 balancers + 8 counters) instead of 4 per request.
  ServerOptions options;
  options.loops = 1;
  ServerUnderTest s("mp:tree:8?actors=2", options);
  ASSERT_TRUE(s.started) << s.start_error;
  const mp::NetworkService& service = dynamic_cast<run::MpBackend&>(*s.backend).service();
  const std::uint64_t before = service.messages_processed();
  const lin::History history = run_clients(s.server->port(), 4, 1024, 32);
  ASSERT_EQ(history.size(), 4096u);
  check_history(history, s.backend->network().output_width());
  const std::uint64_t messages = service.messages_processed() - before;
  EXPECT_LT(messages, 2 * history.size())
      << static_cast<double>(messages) / static_cast<double>(history.size())
      << " messages per request";
}

TEST(SvcServer, EndToEndRtBitonic8) {
  ServerUnderTest s("rt:bitonic:8");
  ASSERT_TRUE(s.started) << s.start_error;
  const lin::History history = run_clients(s.server->port(), 4, 300, 8);
  ASSERT_EQ(history.size(), 1200u);
  check_history(history, s.backend->network().output_width());
  const Server::Stats stats = s.server->stats();
  EXPECT_EQ(stats.responses_ok, 1200u);
  // The batched path issued bulk chunks, not 1200 single counts.
  EXPECT_LT(stats.batches, 1200u);
}

TEST(SvcServer, UnbatchedAblationServesTheSameContract) {
  ServerOptions options;
  options.batching = false;
  ServerUnderTest s("rt:bitonic:8", options);
  ASSERT_TRUE(s.started) << s.start_error;
  const lin::History history = run_clients(s.server->port(), 2, 200, 4);
  ASSERT_EQ(history.size(), 400u);
  check_history(history, s.backend->network().output_width());
  // One backend issue per request: no coalescing anywhere.
  EXPECT_EQ(s.server->stats().batches, 400u);
}

TEST(SvcServer, DeadlineFramesDriveRealMpCancellation) {
  const run::BackendSpec spec = run::parse_spec_or_die("mp:tree:4?actors=1");
  run::MpBackend backend(spec);
  Server server(backend);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  Client client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port(), &error)) << error;
  std::uint64_t timeouts = 0;
  std::uint64_t oks = 0;
  for (std::uint64_t id = 0; id < 50; ++id) {
    Response response;
    // A 1 ns budget is spent long before the loop can collect: the server
    // must take the deadline-bounded collect path, whose expiry runs the
    // slot-CAS cancellation and parks the token's value. (A response can
    // still be kOk when a previously parked value satisfies the request
    // instantly — recycling at work, not a missed deadline.)
    ASSERT_TRUE(client.count_until(id, 1, &response, &error)) << error;
    ASSERT_NE(response.status, Status::kError);
    ASSERT_NE(response.status, Status::kShed);
    if (response.status == Status::kTimeout) ++timeouts;
    if (response.status == Status::kOk) ++oks;
  }
  EXPECT_GT(timeouts, 0u);
  EXPECT_EQ(timeouts + oks, 50u);
  EXPECT_EQ(server.stats().responses_timeout, timeouts);
  // The backend's own robustness counters saw the real cancellations —
  // these are the slot-CAS kCancelled transitions, not server bookkeeping.
  EXPECT_GT(backend.service().robustness_stats().deadline_timeouts, 0u);

  // The connection (and the counter) survive: a plain count still works,
  // and parked values keep the counting property intact via recycling.
  Response response;
  ASSERT_TRUE(client.count(1000, &response, &error)) << error;
  EXPECT_EQ(response.status, Status::kOk);
  server.stop();
}

TEST(SvcServer, RtDeadlineHonestRefusalWhenBudgetSpent) {
  ServerUnderTest s("rt:bitonic:8");
  ASSERT_TRUE(s.started) << s.start_error;
  Client client;
  std::string error;
  ASSERT_TRUE(client.connect("127.0.0.1", s.server->port(), &error)) << error;
  // rt cannot interrupt a traversal the serving thread runs itself, so a
  // 1 ns budget must come back kTimeout *without executing*; a generous one
  // executes to completion.
  Response response;
  ASSERT_TRUE(client.count_until(1, 1, &response, &error)) << error;
  EXPECT_EQ(response.status, Status::kTimeout);
  ASSERT_TRUE(client.count_until(2, 1000000000ull, &response, &error)) << error;
  EXPECT_EQ(response.status, Status::kOk);

  // One pipelined wake mixing the two with plain counts: the spent budget
  // is refused before its chunk is issued, so it claims no value and the
  // three served values are gapless.
  client.queue_count(3);
  client.queue_count_until(4, 1);
  client.queue_count(5);
  client.queue_count_until(6, 1000000000ull);
  ASSERT_TRUE(client.flush(&error)) << error;
  std::vector<std::uint64_t> served;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(client.recv_response(&response, &error)) << error;
    if (response.request_id == 4) {
      EXPECT_EQ(response.status, Status::kTimeout);
      continue;
    }
    EXPECT_EQ(response.status, Status::kOk) << "request " << response.request_id;
    served.push_back(response.value);
  }
  ASSERT_EQ(served.size(), 3u);
  std::sort(served.begin(), served.end());
  EXPECT_EQ(served.back() - served.front(), 2u);
  EXPECT_EQ(served[1], served.front() + 1);
}

TEST(SvcServer, BacklogShedWhenPendingOverCap) {
  ServerOptions options;
  options.max_pending = 0;  // degenerate cap: every request sheds
  ServerUnderTest s("mp:tree:4?actors=1", options);
  ASSERT_TRUE(s.started) << s.start_error;
  Client client;
  std::string error;
  ASSERT_TRUE(client.connect("127.0.0.1", s.server->port(), &error)) << error;
  for (std::uint64_t id = 0; id < 4; ++id) {
    Response response;
    ASSERT_TRUE(client.count(id, &response, &error)) << error;
    EXPECT_EQ(response.status, Status::kShed);
    EXPECT_EQ(response.error, WireError::kBacklogShed);
    EXPECT_EQ(response.request_id, id);
  }
  EXPECT_EQ(s.server->stats().responses_shed, 4u);
  EXPECT_EQ(s.server->stats().responses_ok, 0u);
}

TEST(SvcServer, TimingShedLatchesLikeDegradeGuard) {
  ServerUnderTest s("mp:tree:4?actors=1");
  ASSERT_TRUE(s.started) << s.start_error;
  Client client;
  std::string error;
  ASSERT_TRUE(client.connect("127.0.0.1", s.server->port(), &error)) << error;

  Response response;
  ASSERT_TRUE(client.count(1, &response, &error)) << error;
  EXPECT_EQ(response.status, Status::kOk);
  EXPECT_FALSE(s.server->timing_tripped());

  // Trip exactly as a crossed c2/c1 estimate would; the latch must stick —
  // timing that broke once voids the linearizability claim for the run.
  s.server->trip_timing_shed();
  for (std::uint64_t id = 2; id < 5; ++id) {
    ASSERT_TRUE(client.count(id, &response, &error)) << error;
    EXPECT_EQ(response.status, Status::kShed);
    EXPECT_EQ(response.error, WireError::kTimingShed);
  }
  EXPECT_TRUE(s.server->timing_tripped());
}

#if CNET_OBS
TEST(SvcServer, TrippedDegradeGuardAloneLatchesTimingShed) {
  // Nothing calls trip_timing_shed() here: a stall plan skews the rt hop
  // latencies until the backend's DegradeGuard (report policy) sees its
  // c2/c1 estimate cross Cor 3.9's bound and trips, and the server's
  // per-wake admission check latches timing shed from that trip alone.
  ServerOptions options;
  options.loops = 1;
  ServerUnderTest s("rt:bitonic:8?metrics&degrade=report&fault=stall:0.3:20000,seed:7",
                    options);
  ASSERT_TRUE(s.started) << s.start_error;
  Client client;
  std::string error;
  ASSERT_TRUE(client.connect("127.0.0.1", s.server->port(), &error)) << error;

  constexpr std::uint64_t kMaxRequests = 20000;
  constexpr std::uint32_t kWindow = 32;
  std::uint64_t id = 0;
  std::uint64_t ok = 0;
  bool shed = false;
  while (!shed && id < kMaxRequests) {
    for (std::uint32_t i = 0; i < kWindow; ++i) client.queue_count(id++);
    ASSERT_TRUE(client.flush(&error)) << error;
    for (std::uint32_t i = 0; i < kWindow; ++i) {
      Response response;
      ASSERT_TRUE(client.recv_response(&response, &error)) << error;
      if (response.status == Status::kOk) {
        ++ok;
        continue;
      }
      ASSERT_EQ(response.status, Status::kShed);
      EXPECT_EQ(response.error, WireError::kTimingShed);
      shed = true;
    }
  }
  ASSERT_TRUE(shed) << "no timing shed after " << id << " requests";
  EXPECT_GT(ok, 0u);  // the guard needs served traffic before it can trip
  EXPECT_TRUE(s.backend->degrade_status().tripped);
  EXPECT_TRUE(s.server->timing_tripped());
  // Latched: every later request is refused the same way.
  for (std::uint64_t n = 0; n < 3; ++n) {
    Response response;
    ASSERT_TRUE(client.count(id++, &response, &error)) << error;
    EXPECT_EQ(response.status, Status::kShed);
    EXPECT_EQ(response.error, WireError::kTimingShed);
  }
}
#else  // !CNET_OBS
TEST(SvcServer, TrippedDegradeGuardAloneLatchesTimingShed) {
  GTEST_SKIP() << "library built with CNET_OBS=0; the rt DegradeGuard is compiled out";
}
#endif  // CNET_OBS

TEST(SvcServer, RejectsSimulatedBackends) {
  ServerUnderTest s("sim:bitonic:8");
  EXPECT_FALSE(s.started);
  EXPECT_NE(s.start_error.find("live"), std::string::npos) << s.start_error;
}

// --- multi-loop operation ---------------------------------------------------
// The sharded server: N independent epoll loops behind SO_REUSEPORT
// listeners on one port. The kernel spreads connections by flow hash, so a
// test cannot dictate which loop serves which client — what it CAN pin is
// that the contract is loop-invariant: the counting property holds over the
// merged traffic, stats merge across shards, the shed latch is global, and
// stop() drains every loop.

TEST(SvcServer, MultiLoopEndToEndMpTree8) {
  ServerOptions options;
  options.loops = 4;
  ServerUnderTest s("mp:tree:8?actors=2", options);
  ASSERT_TRUE(s.started) << s.start_error;
  EXPECT_EQ(s.server->loops(), 4u);
  const lin::History history = run_clients(s.server->port(), 8, 200, 8);
  ASSERT_EQ(history.size(), 1600u);
  check_history(history, s.backend->network().output_width());
  // Stats are per-loop shards merged on read; the totals must account for
  // every connection and request no matter which loop served it.
  const Server::Stats stats = s.server->stats();
  EXPECT_EQ(stats.connections_accepted, 8u);
  EXPECT_EQ(stats.requests, 1600u);
  EXPECT_EQ(stats.responses_ok, 1600u);
  EXPECT_EQ(stats.protocol_errors, 0u);
}

TEST(SvcServer, MultiLoopEndToEndRtBitonic8) {
  // rt's thread_id contract ("unique among concurrent callers") is the
  // sharp edge of multi-loop: each loop issues from a disjoint slice of
  // the ?threads= space, and this test would trip the backend's internal
  // checks (or corrupt counts) if slices overlapped.
  ServerOptions options;
  options.loops = 4;
  ServerUnderTest s("rt:bitonic:8?threads=64", options);
  ASSERT_TRUE(s.started) << s.start_error;
  const lin::History history = run_clients(s.server->port(), 8, 200, 8);
  ASSERT_EQ(history.size(), 1600u);
  check_history(history, s.backend->network().output_width());
  EXPECT_EQ(s.server->stats().responses_ok, 1600u);
}

TEST(SvcServer, MultiLoopTimingShedLatchIsGlobal) {
  ServerOptions options;
  options.loops = 4;
  ServerUnderTest s("mp:tree:4?actors=1", options);
  ASSERT_TRUE(s.started) << s.start_error;
  s.server->trip_timing_shed();
  // Fresh connections land on kernel-chosen loops; whichever loop each one
  // hits must already honour the latch — a per-loop latch would let some
  // connections keep counting under a voided timing claim.
  for (std::uint32_t c = 0; c < 8; ++c) {
    Client client;
    std::string error;
    ASSERT_TRUE(client.connect("127.0.0.1", s.server->port(), &error)) << error;
    Response response;
    ASSERT_TRUE(client.count(c, &response, &error)) << error;
    EXPECT_EQ(response.status, Status::kShed);
    EXPECT_EQ(response.error, WireError::kTimingShed);
  }
  EXPECT_EQ(s.server->stats().responses_shed, 8u);
}

TEST(SvcServer, RejectsZeroLoops) {
  ServerOptions options;
  options.loops = 0;
  ServerUnderTest s("mp:tree:4?actors=1", options);
  EXPECT_FALSE(s.started);
  EXPECT_NE(s.start_error.find("loops"), std::string::npos) << s.start_error;
}

TEST(SvcServer, RejectsRtThreadSpaceSmallerThanLoops) {
  // threads=2 cannot give 4 loops disjoint slices; starting anyway would
  // make loops share thread ids and silently break rt's issue contract.
  ServerOptions options;
  options.loops = 4;
  ServerUnderTest s("rt:bitonic:8?threads=2", options);
  EXPECT_FALSE(s.started);
  EXPECT_NE(s.start_error.find("thread-id slice"), std::string::npos) << s.start_error;
}

TEST(SvcServer, StopDrainsWithoutStrayFrames) {
  ServerOptions options;
  options.loops = 2;
  ServerUnderTest s("mp:tree:8?actors=2", options);
  ASSERT_TRUE(s.started) << s.start_error;

  Client client;
  std::string error;
  ASSERT_TRUE(client.connect("127.0.0.1", s.server->port(), &error)) << error;
  for (std::uint64_t id = 0; id < 64; ++id) client.queue_count(id);
  ASSERT_TRUE(client.flush(&error)) << error;
  // Wait (via the merged stats, not the socket) until the burst is fully
  // served, so the client-side receive buffer holds 64 response frames the
  // client has not read yet — then stop. The drain contract: those frames
  // survive the shutdown intact, the stream ends in a clean EOF, and
  // nothing stray or truncated follows the last whole frame.
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  while (s.server->stats().responses_ok < 64 && Clock::now() < deadline) {
    std::this_thread::yield();
  }
  ASSERT_EQ(s.server->stats().responses_ok, 64u);
  s.server->stop();
  std::vector<bool> seen(64, false);
  std::uint64_t received = 0;
  for (;;) {
    Response response;
    if (!client.recv_response(&response, &error)) {
      EXPECT_EQ(error, "connection closed by server");
      break;
    }
    EXPECT_EQ(response.status, Status::kOk);
    ASSERT_LT(response.request_id, 64u);
    EXPECT_FALSE(seen[response.request_id]);  // no duplicated frames either
    seen[response.request_id] = true;
    ++received;
  }
  EXPECT_EQ(received, 64u);
}

// --- carried waves ----------------------------------------------------------
// An mp wave's handles are collected one loop iteration after their issue.
// On kStalledTree every hop stalls 2 ms, so a 32-request wave stays in the
// network for about 100 ms (32 tokens x 3 hops over 2 workers) after its
// wake issued it.

constexpr char kStalledTree[] = "mp:tree:8?actors=2&fault=stall:1:2000000,seed:1";

/// Waits (via the merged stats) until the loop has issued a chunk.
void await_first_batch(const Server& server) {
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  while (server.stats().batches < 1 && Clock::now() < deadline) std::this_thread::yield();
}

TEST(SvcServer, StopAnswersACarriedWave) {
  ServerOptions options;
  options.loops = 1;
  ServerUnderTest s(kStalledTree, options);
  ASSERT_TRUE(s.started) << s.start_error;
  Client client;
  std::string error;
  ASSERT_TRUE(client.connect("127.0.0.1", s.server->port(), &error)) << error;
  for (std::uint64_t id = 0; id < 32; ++id) client.queue_count(id);
  ASSERT_TRUE(client.flush(&error)) << error;
  await_first_batch(*s.server);
  const Server::Stats issued = s.server->stats();
  ASSERT_GE(issued.batches, 1u);
  ASSERT_EQ(issued.responses_ok, 0u);
  // Stop with the wave in flight: the loop still answers every request
  // before its drain flushes, so the stream carries all 32 values, then EOF.
  s.server->stop();
  std::vector<std::uint64_t> values;
  for (;;) {
    Response response;
    if (!client.recv_response(&response, &error)) {
      EXPECT_EQ(error, "connection closed by server");
      break;
    }
    EXPECT_EQ(response.status, Status::kOk);
    values.push_back(response.value);
  }
  ASSERT_EQ(values.size(), 32u);
  std::sort(values.begin(), values.end());
  for (std::uint64_t i = 0; i < 32; ++i) EXPECT_EQ(values[i], i);
}

TEST(SvcServer, PeerCloseWithACarriedWave) {
  ServerOptions options;
  options.loops = 1;
  ServerUnderTest s(kStalledTree, options);
  ASSERT_TRUE(s.started) << s.start_error;
  std::string error;
  {
    // The hang-up travels right behind the burst, so the loop usually
    // reads and issues the requests, then kills the connection in its next
    // iteration, before it collects the requests that still name it. The
    // Conn must outlive them (ASan checks that no freed one is touched),
    // and every handle must still be resolved.
    Client quitter;
    ASSERT_TRUE(quitter.connect("127.0.0.1", s.server->port(), &error)) << error;
    for (std::uint64_t id = 0; id < 32; ++id) quitter.queue_count(id);
    ASSERT_TRUE(quitter.flush(&error)) << error;
  }
  await_first_batch(*s.server);
  ASSERT_GE(s.server->stats().batches, 1u);

  Client client;
  ASSERT_TRUE(client.connect("127.0.0.1", s.server->port(), &error)) << error;
  Response response;
  ASSERT_TRUE(client.count(1000, &response, &error)) << error;
  EXPECT_EQ(response.status, Status::kOk);
  s.server->stop();
  const mp::NetworkService& service = dynamic_cast<run::MpBackend&>(*s.backend).service();
  EXPECT_EQ(service.robustness_stats().in_flight, 0u);
}

TEST(SvcServer, OverflowKillWithACarriedWave) {
  // A connection killed in the very iteration that carries its wave: parked
  // values answer the first slots of its chunk at once, and with no room to
  // buffer a second response the overflow check kills the connection while
  // the rest of the chunk is still in flight. The Conn must outlive those
  // carried requests (ASan checks that no freed one is touched).
  ServerOptions options;
  options.loops = 1;
  options.max_write_buffer = 0;
  ServerUnderTest s("mp:tree:8?actors=2", options);
  ASSERT_TRUE(s.started) << s.start_error;
  const mp::NetworkService& service = dynamic_cast<run::MpBackend&>(*s.backend).service();
  std::string error;
  // Park values: most of a burst of 1 ns budgets is cancelled at its
  // collect, and each cancelled token parks its value when it lands.
  for (std::uint32_t round = 0; service.robustness_stats().parked_now < 2; ++round) {
    ASSERT_LT(round, 100u) << "no values parked";
    const std::uint64_t batches = s.server->stats().batches;
    Client parker;
    ASSERT_TRUE(parker.connect("127.0.0.1", s.server->port(), &error)) << error;
    for (std::uint64_t id = 0; id < 8; ++id) parker.queue_count_until(id, 1);
    ASSERT_TRUE(parker.flush(&error)) << error;
    const auto deadline = Clock::now() + std::chrono::seconds(10);
    while ((s.server->stats().batches == batches || service.robustness_stats().in_flight != 0) &&
           Clock::now() < deadline) {
      std::this_thread::yield();
    }
  }

  Client victim;
  ASSERT_TRUE(victim.connect("127.0.0.1", s.server->port(), &error)) << error;
  for (std::uint64_t id = 0; id < 32; ++id) victim.queue_count(id);
  ASSERT_TRUE(victim.flush(&error)) << error;
  Response response;
  EXPECT_FALSE(victim.recv_response(&response, &error));  // dropped, not answered

  Client client;
  ASSERT_TRUE(client.connect("127.0.0.1", s.server->port(), &error)) << error;
  ASSERT_TRUE(client.count(1000, &response, &error)) << error;
  EXPECT_EQ(response.status, Status::kOk);
  s.server->stop();
  EXPECT_EQ(service.robustness_stats().in_flight, 0u);
}

// --- UNIX-domain transport (--uds) ----------------------------------------

TEST(SvcServer, UdsEndToEndSameContractAsTcp) {
  const std::string path = testing::TempDir() + "cnet_svc_uds_" + std::to_string(getpid());
  ServerOptions options;
  options.uds_path = path;
  options.loops = 2;  // loops share one dup()'d listener on AF_UNIX
  ServerUnderTest s("rt:bitonic:8?threads=32", options);
  ASSERT_TRUE(s.started) << s.start_error;
  EXPECT_EQ(s.server->port(), 0);  // no TCP endpoint exists
  EXPECT_EQ(s.server->uds_path(), path);

  const lin::History history = run_clients(0, 4, 300, 8, path);
  ASSERT_EQ(history.size(), 1200u);
  check_history(history, s.backend->network().output_width());
  const Server::Stats stats = s.server->stats();
  EXPECT_EQ(stats.responses_ok, 1200u);
  EXPECT_EQ(stats.protocol_errors, 0u);

  // stop() unlinks the socket file; the path must be reusable immediately.
  s.server->stop();
  Client reject;
  std::string error;
  EXPECT_FALSE(reject.connect_uds(path, &error));
}

TEST(SvcServer, UdsAbstractNamespaceNeedsNoFilesystemEntry) {
  const std::string name = "@cnet_svc_abstract_" + std::to_string(getpid());
  ServerOptions options;
  options.uds_path = name;
  options.loops = 1;
  ServerUnderTest s("mp:tree:8?actors=2", options);
  ASSERT_TRUE(s.started) << s.start_error;
  const lin::History history = run_clients(0, 2, 200, 4, name);
  ASSERT_EQ(history.size(), 400u);
  check_history(history, s.backend->network().output_width());
}

TEST(SvcServer, UdsStaleSocketFromDeadServerIsReplaced) {
  const std::string path = testing::TempDir() + "cnet_svc_stale_" + std::to_string(getpid());
  ServerOptions options;
  options.uds_path = path;
  options.loops = 1;
  {
    ServerUnderTest first("rt:bitonic:8", options);
    ASSERT_TRUE(first.started) << first.start_error;
    // No stop(): the destructor path mimics an ungraceful exit enough to
    // leave-or-remove the file; either way the next bind must succeed.
  }
  ServerUnderTest second("rt:bitonic:8", options);
  ASSERT_TRUE(second.started) << second.start_error;
  Client client;
  std::string error;
  ASSERT_TRUE(client.connect_uds(path, &error)) << error;
  Response response;
  ASSERT_TRUE(client.count(1, &response, &error)) << error;
  EXPECT_EQ(response.status, Status::kOk);
}

TEST(SvcServer, UdsRejectsOverlongPath) {
  ServerOptions options;
  options.uds_path = std::string(200, 'x');  // sun_path is ~108 bytes
  ServerUnderTest s("rt:bitonic:8", options);
  EXPECT_FALSE(s.started);
  EXPECT_NE(s.start_error.find("uds path"), std::string::npos) << s.start_error;
}

TEST(SvcServer, MixedOpsConcurrentClients) {
  // Both live families serve plain and deadline frames through the same
  // batched path.
  for (const char* spec : {"mp:tree:8?actors=2", "rt:bitonic:8"}) {
    SCOPED_TRACE(spec);
    ServerUnderTest s(spec);
    ASSERT_TRUE(s.started) << s.start_error;
    std::vector<std::jthread> threads;
    for (std::uint32_t c = 0; c < 3; ++c) {
      threads.emplace_back([&, c] {
        Client client;
        std::string error;
        ASSERT_TRUE(client.connect("127.0.0.1", s.server->port(), &error)) << error;
        for (std::uint64_t i = 0; i < 100; ++i) {
          Response response;
          const std::uint64_t id = (static_cast<std::uint64_t>(c) << 40) | i;
          if (i % 3 == 0) {
            // A one-second budget never expires here: same result as count.
            ASSERT_TRUE(client.count_until(id, 1000000000ull, &response, &error)) << error;
          } else {
            ASSERT_TRUE(client.count(id, &response, &error)) << error;
          }
          ASSERT_EQ(response.status, Status::kOk);
          ASSERT_EQ(response.request_id, id);
        }
      });
    }
    threads.clear();
    EXPECT_EQ(s.server->stats().responses_ok, 300u);
  }
}

}  // namespace
}  // namespace cnet::svc
