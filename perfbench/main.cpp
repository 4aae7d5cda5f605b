// cnet_perfbench: the benchmark program (perfbench/run.py builds and runs it).
//
//   cnet_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  --root <checkout> [--trace-out <file.json>]
//
// Prints the run context, one line per metric with its unit and how it was
// taken, and as its last line one JSON object with the keys correct,
// attempted, failed and metrics: the end-to-end metrics with --trace 0, the
// per-layer metrics with --trace 1. A traced run also prints self time per
// layer and writes its spans to --trace-out as chrome://tracing JSON.
// Exit status: 0 when every check passed, 1 when one failed, 2 on bad usage
// or an unoptimised build.
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>

#include "spans.h"
#include "workloads.h"

namespace {

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

int usage(const char* why) {
  std::fprintf(stderr,
               "cnet_perfbench: %s\nusage: cnet_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --root <checkout> [--trace-out <file>]\n",
               why);
  return 2;
}

bool parse_u64(const char* text, std::uint64_t* out) {
  if (text == nullptr || *text == '\0' || *text == '-') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (errno != 0 || *end != '\0') return false;
  *out = value;
  return true;
}

void print_result(bool correct, const perfbench::OpTally& tally,
                  const std::vector<perfbench::Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(tally.attempted()),
              static_cast<unsigned long long>(tally.failed()));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  if (!kOptimized || (build_type != "Release" && build_type != "RelWithDebInfo")) {
    std::fprintf(stderr,
                 "cnet_perfbench: refusing to measure an unoptimised '%s' build; configure "
                 "with -DCMAKE_BUILD_TYPE=Release\n",
                 build_type.c_str());
    return 2;
  }

  perfbench::RunOptions options;
  std::string trace_out;
  std::uint64_t seconds = 0, trace = 2;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (value == nullptr) return usage(("missing value for " + flag).c_str());
    ++i;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      if (!parse_u64(value, &options.seed)) return usage("--seed needs a whole number");
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!parse_u64(value, &seconds) || seconds == 0) return usage("--seconds needs a whole number >= 1");
    } else if (flag == "--trace") {
      if (!parse_u64(value, &trace) || trace > 1) return usage("--trace needs 0 or 1");
    } else if (flag == "--root") {
      options.root = value;
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  bool known = false;
  for (const std::string& name : perfbench::workload_names()) known = known || name == options.workload;
  if (!known) return usage("--workload must be rt-closed, svc-window, deploy-pipeline or psim-figs");
  if (!have_seed || seconds == 0 || trace > 1 || options.root.empty()) {
    return usage("--seed, --seconds, --trace and --root are required");
  }
  options.seconds = static_cast<double>(seconds);
  options.trace = trace == 1;

  double load[3] = {0.0, 0.0, 0.0};
  if (::getloadavg(load, 3) < 0) load[0] = -1.0;
  std::printf("context: nproc=%u build=%s loadavg_1m=%.2f workload=%s seed=%llu seconds=%llu trace=%d\n",
              std::thread::hardware_concurrency(), build_type.c_str(), load[0],
              options.workload.c_str(), static_cast<unsigned long long>(options.seed),
              static_cast<unsigned long long>(seconds), options.trace ? 1 : 0);
  std::fflush(stdout);

  const std::unique_ptr<perfbench::SpanLog> log =
      options.trace ? std::make_unique<perfbench::SpanLog>() : nullptr;
  perfbench::WorkloadResult result = perfbench::run_workload(options, log.get());

  for (const std::string& note : result.notes) std::printf("note: %s\n", note.c_str());
  const std::vector<perfbench::Metric>& metrics = options.trace ? result.per_layer : result.end_to_end;
  for (const perfbench::Metric& metric : metrics) {
    if (!std::isfinite(metric.value)) {
      result.correct = false;
      result.failure = "metric " + metric.name + " is not finite";
    }
  }
  if (!result.correct) {
    std::printf("FAILED: %s\n", result.failure.c_str());
    print_result(false, result.tally, {});
    return 1;
  }

  for (const perfbench::Metric& metric : metrics) {
    std::printf("%-28s %16.6f %-6s (%s)\n", metric.name.c_str(), metric.value, metric.unit.c_str(),
                metric.note.c_str());
  }
  std::printf("%-28s %16.6f %-6s (%llu failed of %llu attempted)\n", "failed_frac",
              result.tally.failed_frac(), "ratio",
              static_cast<unsigned long long>(result.tally.failed()),
              static_cast<unsigned long long>(result.tally.attempted()));
  if (options.trace) {
    for (const auto& [layer, self_s] : result.self_time_s) {
      std::printf("self time %-18s %12.6f s (traced rounds)\n", layer.c_str(), self_s);
    }
    if (!trace_out.empty()) {
      std::ofstream out(trace_out);
      out << log->chrome_json();
      if (!out) {
        std::fprintf(stderr, "cnet_perfbench: cannot write %s\n", trace_out.c_str());
        return 1;
      }
      std::printf("spans: written to %s\n", trace_out.c_str());
    }
  }
  print_result(true, result.tally, metrics);
  return 0;
}
