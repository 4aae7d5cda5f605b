// cnet_loadgen — an open-loop Poisson load generator for the cnet service
// (svc/frame.h protocol; the client half of BENCH_svc and the CI smoke
// runs).
//
// Open loop means arrivals are paced by a clock, not by responses: each
// connection draws exponential inter-arrival gaps and sends on schedule even
// when replies lag, so server-side queueing — the thing boundary batching
// and admission control exist for — is actually exercised. The schedule is
// not merely "the same pacing as" the harness's poisson arrivals, it IS the
// harness's: the generator builds a run::Workload and drives it through the
// same OpenLoopPacer / issuer_seeds / issuer_quotas the in-process Runner
// uses, so `--connections C --ops N --rate R --seed S` over the wire issues
// the byte-identical arrival schedule as `run ... threads=C ops=N rate=R
// seed=S arrival=poisson` in process (tests/run_workload_test.cpp pins
// this). Responses drain opportunistically through the nonblocking
// poll_response path and are matched by request_id for latency measurement.
//
//   cnet_loadgen --port N [--host A] [--connections N] [--ops N]
//                [--rate OPS_PER_SEC] [--deadline-ns D --deadline-fraction F]
//                [--seed S] [--check]
//   cnet_loadgen --uds PATH [same options]    # UNIX-domain transport
//
// --check verifies the counting property over the wire: every kOk value
// distinct, and together forming a gapless range when the generator is the
// server's only client. Exit codes: 0 ok, 1 check failed or shed/errors
// when checking, 2 usage/connect error (a malformed or out-of-range number
// is a usage error that echoes the value).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "run/workload.h"
#include "svc/client.h"
#include "util/rng.h"
#include "util/stats.h"

#include "flag_parse.h"

namespace {

using namespace cnet;
using namespace cnet::tools;
using Clock = std::chrono::steady_clock;

struct Options {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::string uds_path;  ///< non-empty = connect over AF_UNIX instead of TCP
  std::uint32_t connections = 8;
  std::uint64_t ops = 20000;
  double rate = 200000.0;  ///< aggregate ops/s across all connections
  std::uint64_t deadline_ns = 0;
  double deadline_fraction = 0.0;
  std::uint64_t seed = 1;
  bool check = false;
};

int usage() {
  std::fprintf(stderr,
               "usage: cnet_loadgen --port N | --uds PATH  [--host A] [--connections N]\n"
               "                    [--ops N] [--rate OPS_PER_SEC] [--deadline-ns D]\n"
               "                    [--deadline-fraction F] [--seed S] [--check]\n");
  return 2;
}

/// One connection's outcome, merged after the threads join.
struct ConnResult {
  bool ok = false;
  std::string error;
  std::uint64_t sent = 0;
  std::uint64_t responses_ok = 0;
  std::uint64_t responses_timeout = 0;
  std::uint64_t responses_shed = 0;
  std::vector<std::uint64_t> values;       ///< kOk counter values (for --check)
  std::vector<double> latencies_ns;        ///< send→response, kOk only
};

double ns_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

/// The per-connection open loop: send on the workload's Poisson schedule,
/// drain whatever responses are ready, then block only for the stragglers.
void run_connection(const Options& options, const run::Workload& workload,
                    std::uint32_t conn_id, std::uint64_t quota, std::uint64_t seed,
                    Clock::time_point t0, ConnResult* result) {
  svc::Client client;
  const bool connected =
      options.uds_path.empty()
          ? client.connect(options.host, options.port, &result->error)
          : client.connect_uds(options.uds_path, &result->error);
  if (!connected) return;

  run::OpenLoopPacer pacer(workload, seed);
  Rng mix(seed ^ 0x9e3779b97f4a7c15ULL);
  std::unordered_map<std::uint64_t, double> sent_at;
  sent_at.reserve(quota);
  const auto drain = [&](bool block) {
    svc::Response response;
    for (;;) {
      bool got = false;
      if (block) {
        if (!client.recv_response(&response, &result->error)) return false;
        got = true;
        block = false;  // one blocking pull, then the cheap path
      } else if (!client.poll_response(&response, &got, &result->error)) {
        return false;
      }
      if (!got) return true;
      switch (response.status) {
        case svc::Status::kOk: {
          ++result->responses_ok;
          if (options.check) result->values.push_back(response.value);
          const auto at = sent_at.find(response.request_id);
          if (at != sent_at.end()) {
            result->latencies_ns.push_back(ns_since(t0) - at->second);
            sent_at.erase(at);
          }
          break;
        }
        case svc::Status::kTimeout: ++result->responses_timeout; break;
        case svc::Status::kShed: ++result->responses_shed; break;
        case svc::Status::kError:
          result->error = "server reported protocol error '" +
                          std::string(svc::wire_error_name(response.error)) + "'";
          return false;
      }
    }
  };

  // The pacer's schedule is relative to the stream's own start; offsetting
  // by the post-connect clock reproduces the historical behavior exactly.
  const double start_ns = ns_since(t0);
  for (std::uint64_t i = 0; i < quota; ++i) {
    const double next_arrival = start_ns + pacer.next_arrival_ns();
    while (ns_since(t0) < next_arrival) {
      if (!drain(false)) return;  // poll instead of spinning empty
    }
    // request_id encodes the connection so ids never collide across conns.
    const std::uint64_t id = (static_cast<std::uint64_t>(conn_id) << 40) | i;
    sent_at.emplace(id, ns_since(t0));
    if (options.deadline_fraction > 0.0 && mix.unit() < options.deadline_fraction) {
      client.queue_count_until(id, options.deadline_ns);
    } else {
      client.queue_count(id);
    }
    if (!client.flush(&result->error)) return;
    ++result->sent;
  }
  const std::uint64_t outstanding =
      quota - (result->responses_ok + result->responses_timeout + result->responses_shed);
  for (std::uint64_t i = 0; i < outstanding;) {
    const std::uint64_t before =
        result->responses_ok + result->responses_timeout + result->responses_shed;
    if (!drain(true)) return;
    i += (result->responses_ok + result->responses_timeout + result->responses_shed) - before;
  }
  result->ok = true;
}

double percentile(std::vector<double>* sorted, double q) {
  if (sorted->empty()) return 0.0;
  const auto at = static_cast<std::size_t>(q * static_cast<double>(sorted->size() - 1));
  return (*sorted)[at];
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    // Numbers parse strictly (tools/flag_parse.h). A connection is a
    // thread, hence the OS-thread cap on --connections.
    const auto count = [&](std::uint64_t max, std::uint64_t min) {
      return parse_count(arg, value(), max, min);
    };
    if (arg == "--host") {
      options.host = value();
    } else if (arg == "--port") {
      options.port = static_cast<std::uint16_t>(count(0xffff, 1));
    } else if (arg == "--uds") {
      options.uds_path = value();
    } else if (arg == "--connections") {
      options.connections = static_cast<std::uint32_t>(count(run::kMaxOsThreads, 1));
    } else if (arg == "--ops") {
      options.ops = count(kU64, 1);
    } else if (arg == "--rate") {
      options.rate = parse_finite(arg, value(), 0.0, kUnbounded, /*above_min=*/true);
    } else if (arg == "--deadline-ns") {
      options.deadline_ns = count(kU64, 0);
    } else if (arg == "--deadline-fraction") {
      options.deadline_fraction = parse_finite(arg, value(), 0.0, 1.0);
    } else if (arg == "--seed") {
      options.seed = count(kU64, 0);
    } else if (arg == "--check") {
      options.check = true;
    } else {
      return usage();
    }
  }
  if (options.port == 0 && options.uds_path.empty()) return usage();
  if (options.deadline_fraction > 0.0 && options.deadline_ns == 0) {
    std::fprintf(stderr, "--deadline-fraction needs --deadline-ns > 0\n");
    return 2;
  }

  // The wire run is the harness workload, verbatim: one issuer per
  // connection, with run::Workload owning the seed chain, the quota split,
  // and the exponential pacing. The Runner's in-process poisson issuers and
  // these threads derive identical schedules from identical parameters.
  run::Workload workload;
  workload.arrival = run::Arrival::kPoisson;
  workload.threads = options.connections;
  workload.total_ops = options.ops;
  workload.rate = options.rate;
  workload.seed = options.seed;
  const std::vector<std::uint64_t> seeds =
      run::issuer_seeds(workload.seed, options.connections);
  const std::vector<std::uint64_t> quotas =
      run::issuer_quotas(workload.total_ops, options.connections);

  std::vector<ConnResult> results(options.connections);
  const Clock::time_point t0 = Clock::now();
  {
    std::vector<std::jthread> threads;
    threads.reserve(options.connections);
    for (std::uint32_t c = 0; c < options.connections; ++c) {
      threads.emplace_back(run_connection, std::cref(options), std::cref(workload), c,
                           quotas[c], seeds[c], t0, &results[c]);
    }
  }
  const double elapsed_ns = ns_since(t0);

  ConnResult total;
  std::vector<double> latencies;
  std::vector<std::uint64_t> values;
  bool all_ok = true;
  for (const ConnResult& r : results) {
    if (!r.ok) {
      all_ok = false;
      std::fprintf(stderr, "connection failed: %s\n",
                   r.error.empty() ? "(no diagnostic)" : r.error.c_str());
    }
    total.sent += r.sent;
    total.responses_ok += r.responses_ok;
    total.responses_timeout += r.responses_timeout;
    total.responses_shed += r.responses_shed;
    latencies.insert(latencies.end(), r.latencies_ns.begin(), r.latencies_ns.end());
    values.insert(values.end(), r.values.begin(), r.values.end());
  }
  std::sort(latencies.begin(), latencies.end());

  std::printf("cnet_loadgen: %u connections, %llu ops @ %.0f ops/s aggregate\n",
              options.connections, static_cast<unsigned long long>(options.ops), options.rate);
  std::printf("  sent %llu  ok %llu  timeout %llu  shed %llu\n",
              static_cast<unsigned long long>(total.sent),
              static_cast<unsigned long long>(total.responses_ok),
              static_cast<unsigned long long>(total.responses_timeout),
              static_cast<unsigned long long>(total.responses_shed));
  std::printf("  elapsed %.1f ms, %.0f counts/s completed\n", elapsed_ns / 1e6,
              static_cast<double>(total.responses_ok) / (elapsed_ns / 1e9));
  if (!latencies.empty()) {
    std::printf("  latency p50 %.1f us  p90 %.1f us  p99 %.1f us  max %.1f us\n",
                percentile(&latencies, 0.50) / 1e3, percentile(&latencies, 0.90) / 1e3,
                percentile(&latencies, 0.99) / 1e3, latencies.back() / 1e3);
  }
  if (!all_ok) return 2;

  if (options.check) {
    // Counting property over the wire (valid when this generator is the
    // server's only client): kOk values are distinct and gapless.
    std::sort(values.begin(), values.end());
    for (std::size_t i = 1; i < values.size(); ++i) {
      if (values[i] == values[i - 1]) {
        std::printf("  CHECK FAIL: duplicate value %llu\n",
                    static_cast<unsigned long long>(values[i]));
        return 1;
      }
    }
    // Timeouts park values for later recycling, so gaps are legal only
    // when timeouts (or sheds) happened.
    if (total.responses_timeout == 0 && total.responses_shed == 0 && !values.empty() &&
        values.back() - values.front() + 1 != values.size()) {
      std::printf("  CHECK FAIL: values not gapless (span %llu, count %zu)\n",
                  static_cast<unsigned long long>(values.back() - values.front() + 1),
                  values.size());
      return 1;
    }
    std::printf("  check: %zu distinct values, counting property holds over the wire\n",
                values.size());
  }
  return 0;
}
