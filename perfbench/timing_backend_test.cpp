#include "timing_backend.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "run/runner.h"
#include "svc/client.h"
#include "svc/server.h"

namespace perfbench {
namespace {

namespace run = cnet::run;
namespace svc = cnet::svc;

std::size_t spans_named(const std::vector<Span>& spans, const char* name) {
  std::size_t n = 0;
  for (const Span& span : spans) n += std::strcmp(span.name, name) == 0 ? 1 : 0;
  return n;
}

run::Workload closed(std::uint32_t threads, std::uint64_t ops) {
  run::Workload workload;
  workload.arrival = run::Arrival::kClosed;
  workload.threads = threads;
  workload.total_ops = ops;
  return workload;
}

/// A decorated backend gives the Runner the verdicts the bare one gives, and
/// records one span per forwarded count().
void expect_same_verdicts(const char* spec_text, const char* count_span) {
  const run::BackendSpec spec = run::parse_spec_or_die(spec_text);
  const run::Workload workload = closed(4, 20000);
  const auto bare = run::make_backend(spec);
  const run::RunReport bare_report = run::Runner().run(*bare, workload);

  SpanLog log;
  const auto inner = run::make_backend(spec);
  TimingBackend timed(*inner, log);
  const run::RunReport timed_report = run::Runner().run(timed, workload);

  ASSERT_TRUE(bare_report.ok) << bare_report.error;
  ASSERT_TRUE(timed_report.ok) << timed_report.error;
  EXPECT_TRUE(bare_report.counting_ok) << bare_report.counting_message;
  EXPECT_TRUE(bare_report.step_ok);
  EXPECT_EQ(timed_report.counting_ok, bare_report.counting_ok) << timed_report.counting_message;
  EXPECT_EQ(timed_report.step_ok, bare_report.step_ok);
  EXPECT_EQ(timed_report.history.size(), bare_report.history.size());
  EXPECT_EQ(spans_named(log.drain(), count_span), workload.total_ops);
}

TEST(TimingBackend, RtVerdictsMatchTheBareBackend) {
  expect_same_verdicts("rt:bitonic:8", "rt.count");
}

TEST(TimingBackend, MpVerdictsMatchTheBareBackend) {
  expect_same_verdicts("mp:tree:8?actors=2", "mp.count");
}

TEST(TimingBackend, RunnerThreadBoundSeesTheInnerSpec) {
  const auto inner = run::make_backend(run::parse_spec_or_die("rt:bitonic:8?threads=2"));
  SpanLog log;
  TimingBackend timed(*inner, log);
  EXPECT_EQ(timed.spec().max_threads, 2u);

  const run::RunReport over = run::Runner().run(timed, closed(4, 1000));
  EXPECT_FALSE(over.ok);
  EXPECT_NE(over.error.find("threads=2"), std::string::npos) << over.error;

  const run::RunReport within = run::Runner().run(timed, closed(2, 1000));
  ASSERT_TRUE(within.ok) << within.error;
  EXPECT_TRUE(within.counting_ok) << within.counting_message;
}

TEST(TimingBackend, ServerDrivesTheDecoratorUnchanged) {
  const auto inner = run::make_backend(run::parse_spec_or_die("mp:tree:8?actors=2"));
  SpanLog log;
  TimingBackend timed(*inner, log);
  svc::ServerOptions options;
  options.loops = 1;
  svc::Server server(timed, options);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  svc::Client client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port(), &error)) << error;

  constexpr std::uint64_t kRequests = 64;
  for (std::uint64_t id = 0; id < kRequests; ++id) {
    if (id % 4 == 3) {
      client.queue_count_until(id, 50'000'000);
    } else {
      client.queue_count(id);
    }
  }
  ASSERT_TRUE(client.flush(&error)) << error;
  std::vector<bool> seen(kRequests, false);
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    svc::Response response;
    ASSERT_TRUE(client.recv_response(&response, &error)) << error;
    ASSERT_EQ(response.status, svc::Status::kOk);
    ASSERT_LT(response.value, kRequests);
    EXPECT_FALSE(seen[response.value]) << "value " << response.value << " issued twice";
    seen[response.value] = true;
  }
  client.close();
  server.stop();

  const std::vector<Span> spans = log.drain();
  EXPECT_EQ(spans_named(spans, "mp.begin"), kRequests);
  EXPECT_EQ(spans_named(spans, "mp.collect"), kRequests - kRequests / 4);
  EXPECT_EQ(spans_named(spans, "mp.collect_until"), kRequests / 4);
}

}  // namespace
}  // namespace perfbench
