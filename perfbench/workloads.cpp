// The four workloads; README.md says why each was chosen.
//
//   rt-closed        rt:bitonic:32?metrics in process, 4 closed-loop issuers
//   svc-window       mp:tree:8?actors=2 behind svc::Server, 4 windowed conns
//   deploy-pipeline  the pipelined ingress -> counter -> record process tiles
//   psim-figs        the Figure 5 and Figure 6 grids on psim
//
// Each keeps at most 4 threads or processes busy and runs closed loops only:
// two-thread contention, oversubscribed cores and open-loop tails were what
// made earlier measurements on a 4-core guest bimodal. Each runs an untimed
// warm-up first, because the first contended run after idle lands in a
// faster, uncontended mode.
#include "workloads.h"

#include <errno.h>
#include <poll.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <numeric>
#include <set>
#include <thread>

#include "deploy/counter_deploy.h"
#include "lin/checker.h"
#include "run/backend.h"
#include "run/runner.h"
#include "svc/client.h"
#include "svc/server.h"
#include "timing_backend.h"
#include "topo/validate.h"

namespace perfbench {
namespace {

namespace deploy = cnet::deploy;
namespace lin = cnet::lin;
namespace run = cnet::run;
namespace svc = cnet::svc;

/// How a metric's values become the reported one: their median, the best
/// (the highest throughput, the lowest of the rest), or the better decile
/// (the 90th percentile of throughputs, the 10th of the rest).
enum class Over { kMedian, kBest, kBetterDecile };

struct MetricDef {
  const char* name;
  const char* unit;
  Over over = Over::kMedian;
  bool higher_is_better = false;
};

/// setup_s and verify_s are single-threaded computation, which the shared
/// host only ever slows down, and by 10-30% for seconds at a time: their
/// best round is the steadiest figure of the code's own cost. The live
/// metrics keep the median: a contended run has a faster mode too (rt p50
/// 180 ns instead of 1.05 us), which the best round would pick.
constexpr MetricDef kEndToEnd[] = {
    {"throughput_ops_s", "1/s", Over::kMedian, true},
    {"latency_p50_us", "us"},
    {"latency_p99_us", "us"},
    {"setup_s", "s", Over::kBest},
    {"verify_s", "s", Over::kBest},
    {"cpu_us_per_op", "us"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"rt.count_ns.p50", "ns"},
    {"rt.count_ns.p99", "ns"},
    {"run.record_ns_per_op", "ns"},
    {"run.analysis_s", "s"},
    {"run.setup_s", "s"},
    {"obs.balancer_visits_per_op", "count"},
    {"lin.check_s", "s"},
    {"lin.range_s", "s"},
    {"svc.requests_per_batch", "count"},
    {"svc.wakes_per_kreq", "count"},
    {"svc.largest_batch", "count"},
    {"svc.client.flush_us.p50", "us"},
    {"svc.count.p50_us", "us"},
    {"svc.count_until.p50_us", "us"},
    {"mp.begin_ns.p50", "ns"},
    {"mp.collect_us.p50", "us"},
    {"mp.collect_us.p99", "us"},
    {"mp.collect_until_us.p50", "us"},
    {"mp.messages_per_op", "count"},
    {"mp.pool_slabs", "count"},
    {"deploy.boot_s", "s"},
    {"deploy.makespan_s", "s"},
    {"deploy.post_s", "s"},
    {"deploy.children_cpu_s", "s"},
    {"deploy.dup_requests", "count"},
    {"psim.simulate_s", "s"},
    {"psim.host_ns_per_sim_op", "ns"},
    {"psim.sim_cycles", "cycles"},
    {"trace.overhead_frac", "ratio"},
};

/// A traced run needs two rounds of each kind; any run needs three rounds
/// for its medians to mean something.
constexpr int kMinRounds = 3;
constexpr int kMinTracedRounds = 4;

constexpr double kBusyWarmupSeconds = 2.0;

/// CPU seconds (user + sys) of RUSAGE_SELF, _THREAD or _CHILDREN.
double cpu_seconds(int who) {
  rusage ru{};
  ::getrusage(who, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string format(const char* fmt, double a, double b = 0.0) {
  char buf[160];
  std::snprintf(buf, sizeof buf, fmt, a, b);
  return buf;
}

/// One value per round (or per window, see add_windows) and metric;
/// reported as the median, the best value, or the better decile.
class Rounds {
 public:
  void add(const std::string& name, double value) { samples_[name].push_back(value); }
  void note(const std::string& name, std::string text) { notes_[name] = std::move(text); }
  /// Marks `name` as taking one value per window, reported at its better
  /// decile whatever the caller asks.
  void per_window(const std::string& name) { per_window_.insert(name); }

  double value_of(const std::string& name, Over over = Over::kMedian, bool higher = false) const {
    const auto it = samples_.find(name);
    if (it == samples_.end()) return 0.0;
    std::vector<double> values = it->second;
    switch (per_window_.contains(name) ? Over::kBetterDecile : over) {
      case Over::kMedian:
        return median(values);
      case Over::kBest:
        return higher ? *std::max_element(values.begin(), values.end())
                      : *std::min_element(values.begin(), values.end());
      case Over::kBetterDecile:
        std::sort(values.begin(), values.end());
        return quantile_sorted(values, higher ? 0.9 : 0.1);
    }
    return 0.0;
  }
  std::string note_of(const std::string& name, Over over = Over::kMedian, bool higher = false) const {
    const auto it = samples_.find(name);
    const std::size_t count = it == samples_.end() ? 0 : it->second.size();
    if (count == 0) return "this workload does not run the layer";
    const bool windows = per_window_.contains(name);
    std::string how;
    switch (windows ? Over::kBetterDecile : over) {
      case Over::kMedian: how = "median of "; break;
      case Over::kBest: how = higher ? "highest of " : "lowest of "; break;
      case Over::kBetterDecile: how = higher ? "90th percentile of " : "10th percentile of "; break;
    }
    std::string text =
        count == 1 ? "" : how + std::to_string(count) + (windows ? " windows" : " rounds");
    const auto note = notes_.find(name);
    if (note != notes_.end()) text += (text.empty() ? "" : "; ") + note->second;
    return text;
  }

 private:
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, std::string> notes_;
  std::set<std::string> per_window_;
};

/// Every round's metrics land in one of two sets: the untraced rounds give
/// the end-to-end numbers, the traced rounds the per-layer ones.
struct Collected {
  Rounds plain;
  Rounds traced;
};

/// The outcome of one round: empty `failure` means every check passed.
struct Round {
  std::string failure;
};

/// The CPUs this process may run on, in ascending order.
std::vector<int> allowed_cpus() {
  cpu_set_t allowed;
  std::vector<int> cpus;
  if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  return cpus;
}

/// Pins the calling thread to the `index`-th allowed CPU (modulo their
/// number) while it lives and restores the thread's mask afterwards. Never
/// held across thread or process creation: children inherit the mask.
///
/// Single-threaded work is timed on a rotating CPU, round after round, and
/// reported as its lowest round. The guest's vCPUs do not run at one speed:
/// one thread ran 15-20% faster or slower from run to run with the vCPU it
/// landed on, and single-threaded phases left on one vCPU spread by as much
/// across runs. The lowest over every vCPU is the speed of the fastest one.
class PinnedTo {
 public:
  explicit PinnedTo(std::size_t index) {
    const std::vector<int> cpus = allowed_cpus();
    if (cpus.size() < 2 || ::sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[index % cpus.size()], &one);
    pinned_ = ::sched_setaffinity(0, sizeof one, &one) == 0;
  }
  ~PinnedTo() {
    if (pinned_) ::sched_setaffinity(0, sizeof saved_, &saved_);
  }
  PinnedTo(const PinnedTo&) = delete;
  PinnedTo& operator=(const PinnedTo&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

/// Runs rounds until `seconds` have passed (and at least the minimum
/// count), alternating untraced and traced rounds in a traced run. Stops at
/// the first failed round: its numbers are never used. `rotation` counts
/// the rounds of each kind, for PinnedTo.
void drive(const RunOptions& options, WorkloadResult& result,
           const std::function<Round(std::size_t rotation, bool traced)>& round) {
  const std::uint64_t t0 = now_ns();
  const int min_rounds = options.trace ? kMinTracedRounds : kMinRounds;
  for (int r = 0; r < min_rounds || static_cast<double>(now_ns() - t0) * 1e-9 < options.seconds;
       ++r) {
    const std::size_t rotation = static_cast<std::size_t>(options.trace ? r / 2 : r);
    const Round outcome = round(rotation, options.trace && r % 2 == 1);
    if (!outcome.failure.empty()) {
      result.correct = false;
      result.failure = options.workload + ": " + outcome.failure;
      return;
    }
  }
}

/// The benchmark's own checks on a finished history: the counting property
/// (values are exactly 0..n-1), the Def 2.2 step property over the values'
/// output ports, and the Def 2.4 analysis, whose verdict is recorded, not
/// required — counting networks need not be linearizable.
struct Verdict {
  std::string failure;
  double range_s = 0.0;
  double step_s = 0.0;
  double check_s = 0.0;
  lin::CheckResult def24;

  double seconds() const { return range_s + step_s + check_s; }
};

Verdict check_history(const lin::History& history, std::uint32_t output_width, SpanLog* log,
                      std::uint64_t parent) {
  Verdict verdict;
  ScopedSpan range(log, "lin.range", parent);
  std::string message;
  const bool range_ok = lin::values_form_range(history, &message);
  verdict.range_s = range.stop();
  if (!range_ok) {
    verdict.failure = "counting property: " + message;
    return verdict;
  }
  ScopedSpan step(log, "lin.step", parent);
  std::vector<std::uint64_t> per_output(output_width, 0);
  for (const lin::Operation& op : history) ++per_output[op.value % output_width];
  const bool step_ok = cnet::topo::has_step_property(per_output);
  verdict.step_s = step.stop();
  if (!step_ok) {
    verdict.failure = "Def 2.2 step property violated";
    return verdict;
  }
  ScopedSpan check(log, "lin.check", parent);
  verdict.def24 = lin::check(history);
  verdict.check_s = check.stop();
  return verdict;
}

/// The checks are memory-bound on a large history: the same check on the
/// same pinned vCPU took 60-86 ms from round to round. Each round therefore
/// runs them this many times, on consecutive vCPUs of the rotation.
constexpr std::size_t kVerifyRepeats = 3;

/// check_history() on a round's large history, kVerifyRepeats times, each
/// under PinnedTo. The verdict and the spans are the first run's; the
/// timings are those of the fastest run.
Verdict verify_round(const lin::History& history, std::uint32_t output_width, SpanLog* log,
                     std::uint64_t parent, std::size_t rotation) {
  Verdict verdict;
  for (std::size_t k = 0; k < kVerifyRepeats; ++k) {
    const PinnedTo pin(rotation * kVerifyRepeats + k);
    const Verdict again = check_history(history, output_width, k == 0 ? log : nullptr, parent);
    if (!again.failure.empty()) return again;
    if (k == 0 || again.seconds() < verdict.seconds()) {
      verdict.range_s = again.range_s;
      verdict.step_s = again.step_s;
      verdict.check_s = again.check_s;
    }
    if (k == 0) verdict.def24 = again.def24;
  }
  return verdict;
}

std::string def24_note(const char* what, const Verdict& verdict) {
  char buf[200];
  std::snprintf(buf, sizeof buf, "%s: Def 2.4 %llu of %llu ops non-linearizable, worst inversion %llu",
                what, static_cast<unsigned long long>(verdict.def24.nonlinearizable_ops),
                static_cast<unsigned long long>(verdict.def24.total_ops),
                static_cast<unsigned long long>(verdict.def24.worst_inversion));
  return buf;
}

/// Adds the per-operation latency percentiles (samples in ns) as
/// latency_p50_us and latency_p99_us, noting the quantile taken and the
/// sample count. Fails when there are too few samples for either.
bool add_latency(Rounds& out, std::vector<double>& ns, std::string* failure) {
  const std::optional<Percentile> p50 = percentile(ns, 0.5);
  const std::optional<Percentile> p99 = percentile(ns, 0.99);
  if (!p50 || !p99) {
    *failure = "too few latency samples (" + std::to_string(ns.size()) + ")";
    return false;
  }
  out.add("latency_p50_us", p50->value / 1e3);
  out.add("latency_p99_us", p99->value / 1e3);
  const std::string count = std::to_string(p99->samples);
  out.note("latency_p50_us", "p50 of " + count + " samples per round");
  out.note("latency_p99_us",
           format("p%g", p99->q * 100.0) + " of " + count + " samples per round");
  return true;
}

/// Live metrics over short windows, for svc-window and deploy-pipeline.
/// Their work passes through a chain of threads or processes, and a vCPU
/// that the host stops for a few ms stalls the whole chain: in a noisy hour
/// the median of 400k-request svc rounds spread 27% in throughput and 145%
/// in p99 between runs, and the median of 10k-request windows still read a
/// p99 of 4.7 ms in one run and 280 us in the next. So the operations that
/// started inside [begin, end) are cut, in order of completion, into
/// windows of `window_ops`. Each window adds its throughput (completions
/// per second between its first and last completion) and its latency p50
/// and p99. The reported figures are the better decile over every window
/// of every round: a stall disturbs the windows it falls in, and at least
/// a tenth of them ran undisturbed in every run seen. Fails when there are
/// too few operations for one window.
bool add_windows(Rounds& out, const lin::History& history, double begin, double end,
                 std::size_t window_ops, std::string* failure) {
  std::vector<std::pair<double, double>> ops;  // (end, start)
  for (const lin::Operation& op : history) {
    if (op.start >= begin && op.start < end) ops.emplace_back(op.end, op.start);
  }
  std::sort(ops.begin(), ops.end());
  const std::size_t windows = ops.size() / window_ops;
  std::vector<double> ns(window_ops);
  std::optional<Percentile> p99;
  for (std::size_t w = 0; w < windows; ++w) {
    const std::size_t first = w * window_ops;
    for (std::size_t i = 0; i < window_ops; ++i) {
      ns[i] = ops[first + i].first - ops[first + i].second;
    }
    const std::optional<Percentile> p50 = percentile(ns, 0.5);
    p99 = percentile(ns, 0.99);
    const double span_ns = ops[first + window_ops - 1].first - ops[first].first;
    if (!p50 || !p99 || span_ns <= 0.0) break;
    out.add("throughput_ops_s", static_cast<double>(window_ops - 1) * 1e9 / span_ns);
    out.add("latency_p50_us", p50->value / 1e3);
    out.add("latency_p99_us", p99->value / 1e3);
  }
  if (windows == 0 || !p99) {
    *failure = "too few operations for a window of " + std::to_string(window_ops);
    return false;
  }
  const std::string each = " of each window's " + std::to_string(window_ops) + " ops";
  out.note("throughput_ops_s", "completions per second" + each);
  out.note("latency_p50_us", "p50" + each);
  out.note("latency_p99_us", format("p%g", p99->q * 100.0) + each);
  for (const char* name : {"throughput_ops_s", "latency_p50_us", "latency_p99_us"}) {
    out.per_window(name);
  }
  return true;
}

/// Percentile of the durations of the spans named `name`, in `scale` units
/// of a nanosecond (1 = ns, 1e3 = us). 0 when there are too few spans.
double span_percentile(const std::vector<Span>& spans, const char* name, double q, double scale) {
  std::vector<double> ns;
  for (const Span& span : spans) {
    if (std::strcmp(span.name, name) == 0) ns.push_back(static_cast<double>(span.end_ns - span.start_ns));
  }
  const std::optional<Percentile> p = percentile(ns, q);
  return p ? p->value / scale : 0.0;
}

double span_seconds(const std::vector<Span>& spans, const char* name) {
  double total = 0.0;
  for (const Span& span : spans) {
    if (std::strcmp(span.name, name) == 0) total += span.seconds();
  }
  return total;
}

/// Drains the traced round's spans into the per-layer self-time totals and
/// returns them for the round's own per-layer numbers.
std::vector<Span> take_spans(SpanLog& log, WorkloadResult& result) {
  std::vector<Span> spans = log.drain();
  for (const auto& [layer, seconds] : self_time_by_layer(spans)) {
    result.self_time_s[layer] += seconds;
  }
  return spans;
}

void finish(const RunOptions& options, const Collected& collected, WorkloadResult& result) {
  for (const MetricDef& def : kEndToEnd) {
    result.end_to_end.push_back(
        Metric{def.name, collected.plain.value_of(def.name, def.over, def.higher_is_better),
               def.unit, collected.plain.note_of(def.name, def.over, def.higher_is_better)});
  }
  if (!options.trace) return;
  for (const MetricDef& def : kPerLayer) {
    result.per_layer.push_back(Metric{def.name, collected.traced.value_of(def.name), def.unit,
                                      collected.traced.note_of(def.name)});
  }
  const double plain = collected.plain.value_of("throughput_ops_s");
  const double traced = collected.traced.value_of("throughput_ops_s");
  for (Metric& metric : result.per_layer) {
    if (metric.name == "trace.overhead_frac") {
      metric.value = plain > 0.0 ? 1.0 - traced / plain : 0.0;
      metric.note = "1 - traced/untraced throughput";
    }
  }
}

/// Keeps every core (at most 4) busy for `seconds`. The guest's vCPUs run
/// in a different state after a spell of light load than under sustained
/// load: deploy-pipeline read about 7.8 M ops/s after 30 s of idle and about
/// 11 M ops/s after 2 s of this, run after run. Every workload starts here,
/// so each measures the loaded state.
void busy_cores(double seconds) {
  const unsigned threads = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  const std::uint64_t until = now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  std::atomic<std::uint64_t> sink{0};  // keeps the spin from being optimised away
  std::vector<std::jthread> spinners;
  for (unsigned t = 0; t < threads; ++t) {
    spinners.emplace_back([until, &sink] {
      std::uint64_t x = 0;
      while (now_ns() < until) {
        for (int i = 0; i < 1000; ++i) x = x * 6364136223846793005ULL + 1;
      }
      sink.fetch_add(x, std::memory_order_relaxed);
    });
  }
}

// --- rt-closed ---------------------------------------------------------------

constexpr char kRtSpec[] = "rt:bitonic:32?metrics";
constexpr std::uint32_t kRtThreads = 4;
constexpr std::uint64_t kRtRoundOps = 1'000'000;
constexpr std::uint64_t kRtWarmupOps = 1'000'000;

WorkloadResult rt_closed(const RunOptions& options, SpanLog* log) {
  WorkloadResult result;
  const run::BackendSpec spec = run::parse_spec_or_die(kRtSpec);
  run::Workload workload;
  workload.arrival = run::Arrival::kClosed;
  workload.threads = kRtThreads;
  workload.batch = 1;
  workload.seed = options.seed;
  {
    run::Workload warmup = workload;
    warmup.total_ops = kRtWarmupOps;
    const std::unique_ptr<run::CountingBackend> throwaway = run::make_backend(spec);
    run::Runner().run(*throwaway, warmup);
  }
  workload.total_ops = kRtRoundOps;

  Collected collected;
  drive(options, result, [&](std::size_t rotation, bool traced) -> Round {
    SpanLog* tlog = traced ? log : nullptr;
    Rounds& out = traced ? collected.traced : collected.plain;
    ScopedSpan round_span(tlog, "bench.round");

    ScopedSpan setup(tlog, "run.make_backend", round_span.id());
    const std::unique_ptr<run::CountingBackend> backend = run::make_backend(spec);
    const double setup_s = setup.stop();
    std::unique_ptr<TimingBackend> timing;
    ScopedSpan run_span(tlog, "run.runner", round_span.id());
    if (traced) {
      timing = std::make_unique<TimingBackend>(*backend, *log);
      timing->set_parent(run_span.id());
    }
    const double self0 = cpu_seconds(RUSAGE_SELF);
    const double thread0 = cpu_seconds(RUSAGE_THREAD);
    const run::RunReport report =
        run::Runner().run(timing ? static_cast<run::CountingBackend&>(*timing) : *backend, workload);
    const double run_s = run_span.stop();
    // The issuers' CPU: the process's CPU over the run minus this thread's
    // (spawning, joining and the Runner's post-run analysis).
    const double issuer_cpu =
        (cpu_seconds(RUSAGE_SELF) - self0) - (cpu_seconds(RUSAGE_THREAD) - thread0);
    if (!report.ok) return {"Runner rejected the run: " + report.error};
    if (report.history.size() != kRtRoundOps || !report.counting_ok || !report.step_ok) {
      return {"Runner checks failed: " + report.counting_message};
    }
    const Verdict verdict = verify_round(report.history, backend->network().output_width(), tlog,
                                         round_span.id(), rotation);
    if (!verdict.failure.empty()) return {verdict.failure};
    result.tally.ok += report.history.size();
    result.notes.push_back(def24_note("rt-closed round", verdict));

    const double makespan_s = report.makespan * 1e-9;
    const double analysis_s = run_s - makespan_s - static_cast<double>(report.drain_wait_ns) * 1e-9;
    std::vector<double> latency = window_latencies(report.history, 0.0, report.makespan + 1.0);
    std::string failure;
    if (!add_latency(out, latency, &failure)) return {failure};
    out.add("throughput_ops_s", static_cast<double>(kRtRoundOps) / makespan_s);
    out.add("setup_s", setup_s);
    // The Runner's own analysis runs on the thread that spawns the issuers,
    // so it cannot be pinned; it is run.analysis_s, not part of verify_s.
    out.add("verify_s", verdict.seconds());
    out.add("cpu_us_per_op", issuer_cpu * 1e6 / static_cast<double>(kRtRoundOps));
    out.add("peak_rss_mb", peak_rss_mb());
    if (!traced) return {};

    out.add("run.analysis_s", analysis_s);
    out.add("run.setup_s", setup_s);
    out.add("lin.check_s", verdict.check_s);
    out.add("lin.range_s", verdict.range_s);
    const auto* rt = dynamic_cast<const run::RtBackend*>(backend.get());
    if (rt != nullptr && rt->metrics() != nullptr) {
      const std::vector<std::uint64_t> visits = rt->metrics()->balancer_visits.values();
      const double total = std::accumulate(visits.begin(), visits.end(), 0.0);
      out.add("obs.balancer_visits_per_op",
              total / static_cast<double>(rt->metrics()->tokens.value()));
    }
    round_span.stop();
    const std::vector<Span> spans = take_spans(*log, result);
    // Runner-recorded latency per value (values are exactly 0..n-1, checked
    // above), so each timed count() can be subtracted from its own op.
    std::vector<double> op_ns(report.history.size());
    for (const lin::Operation& op : report.history) op_ns[op.value] = op.end - op.start;
    std::vector<double> record_ns;
    const char* count_name = timing->names().count;
    for (const Span& span : spans) {
      if (std::strcmp(span.name, count_name) != 0) continue;
      record_ns.push_back(op_ns[span.arg] - static_cast<double>(span.end_ns - span.start_ns));
    }
    out.add("rt.count_ns.p50", span_percentile(spans, count_name, 0.5, 1.0));
    out.add("rt.count_ns.p99", span_percentile(spans, count_name, 0.99, 1.0));
    if (!record_ns.empty()) out.add("run.record_ns_per_op", median(record_ns));
    return {};
  });
  if (result.correct) finish(options, collected, result);
  return result;
}

// --- svc-window ----------------------------------------------------------------

constexpr char kSvcSpec[] = "mp:tree:8?actors=2";
constexpr std::uint32_t kSvcConns = 4;
constexpr std::uint32_t kSvcWindow = 32;  ///< requests in flight per connection
constexpr std::uint64_t kSvcWarmupOps = 20'000;
constexpr std::uint64_t kSvcRoundOps = 100'000;
constexpr std::size_t kSvcWindowOps = 10'000;  ///< about 12 ms; see add_windows()
constexpr std::uint64_t kSvcUntilEvery = 4;             ///< every 4th request is kCountUntil
constexpr std::uint64_t kSvcBudgetNs = 50'000'000;      ///< never expires at this load

bool is_count_until(std::uint64_t id) { return id % kSvcUntilEvery == kSvcUntilEvery - 1; }

/// Per-request record of one round, indexed by request id.
struct Exchange {
  explicit Exchange(std::uint64_t n) : sent_ns(n, 0), recv_ns(n, 0), value(n, 0), status(n, 0) {}
  std::vector<std::uint64_t> sent_ns;
  std::vector<std::uint64_t> recv_ns;
  std::vector<std::uint64_t> value;
  std::vector<std::uint8_t> status;
};

/// Sends requests [first, last) from this one thread over every connection,
/// each keeping kSvcWindow requests in flight: a closed loop that refills a
/// connection as its responses arrive. A request is stamped sent just
/// before the flush that carries it.
bool exchange(std::vector<std::unique_ptr<svc::Client>>& clients, std::uint64_t first,
              std::uint64_t last, Exchange& ex, SpanLog* log, std::uint64_t parent,
              std::string* error) {
  std::uint64_t next = first;
  std::uint64_t done = 0;
  std::vector<std::uint32_t> in_flight(clients.size(), 0);
  const auto refill = [&](std::size_t c) {
    const std::uint64_t from = next;
    while (in_flight[c] < kSvcWindow && next < last) {
      if (is_count_until(next)) {
        clients[c]->queue_count_until(next, kSvcBudgetNs);
      } else {
        clients[c]->queue_count(next);
      }
      ++in_flight[c];
      ++next;
    }
    if (next == from) return true;
    const std::uint64_t sent = now_ns();
    for (std::uint64_t id = from; id < next; ++id) ex.sent_ns[id] = sent;
    ScopedSpan flush(log, "svc.client.flush", parent, /*leaf=*/true);
    return clients[c]->flush(error);
  };
  for (std::size_t c = 0; c < clients.size(); ++c) {
    if (!refill(c)) return false;
  }
  std::vector<pollfd> fds(clients.size());
  for (std::size_t c = 0; c < clients.size(); ++c) fds[c] = pollfd{clients[c]->fd(), POLLIN, 0};
  while (done < last - first) {
    const int ready = ::poll(fds.data(), fds.size(), 5000);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) {
      *error = ready == 0 ? "no response within 5 s" : std::string("poll: ") + std::strerror(errno);
      return false;
    }
    for (std::size_t c = 0; c < clients.size(); ++c) {
      if (fds[c].revents == 0) continue;
      for (;;) {
        svc::Response response;
        bool got = false;
        if (!clients[c]->poll_response(&response, &got, error)) return false;
        if (!got) break;
        const std::uint64_t id = response.request_id;
        if (id < first || id >= last || ex.recv_ns[id] != 0) {
          *error = "unexpected response id " + std::to_string(id);
          return false;
        }
        ex.recv_ns[id] = now_ns();
        ex.value[id] = response.value;
        ex.status[id] = static_cast<std::uint8_t>(response.status);
        --in_flight[c];
        ++done;
      }
      if (!refill(c)) return false;
    }
  }
  return true;
}

WorkloadResult svc_window(const RunOptions& options, SpanLog* log) {
  WorkloadResult result;
  const run::BackendSpec spec = run::parse_spec_or_die(kSvcSpec);
  constexpr std::uint64_t kTotal = kSvcWarmupOps + kSvcRoundOps;

  Collected collected;
  drive(options, result, [&](std::size_t rotation, bool traced) -> Round {
    SpanLog* tlog = traced ? log : nullptr;
    Rounds& out = traced ? collected.traced : collected.plain;
    ScopedSpan round_span(tlog, "bench.round");
    std::string error;

    ScopedSpan setup(tlog, "svc.setup", round_span.id());
    const std::unique_ptr<run::CountingBackend> backend = run::make_backend(spec);
    auto* mp = dynamic_cast<run::MpBackend*>(backend.get());
    if (mp == nullptr) return {"backend is not mp"};
    std::unique_ptr<TimingBackend> timing;
    if (traced) timing = std::make_unique<TimingBackend>(*backend, *log);
    svc::ServerOptions server_options;
    server_options.loops = 1;
    server_options.batching = true;
    svc::Server server(timing ? static_cast<run::CountingBackend&>(*timing) : *backend,
                       server_options);
    if (!server.start(&error)) return {"server start: " + error};
    std::vector<std::unique_ptr<svc::Client>> clients;
    for (std::uint32_t c = 0; c < kSvcConns; ++c) {
      clients.push_back(std::make_unique<svc::Client>());
      if (!clients.back()->connect("127.0.0.1", server.port(), &error)) {
        return {"connect: " + error};
      }
    }
    const double setup_s = setup.stop();

    Exchange ex(kTotal);
    if (timing) timing->set_parent(round_span.id());
    if (!exchange(clients, 0, kSvcWarmupOps, ex, tlog, round_span.id(), &error)) {
      return {"warm-up: " + error};
    }
    const double pool_slabs = static_cast<double>(mp->service().pool_stats().slabs);
    if (traced) log->drain();  // warm-up spans stay out of the per-layer numbers

    const svc::Server::Stats stats0 = server.stats();
    const std::uint64_t messages0 = mp->service().messages_processed();
    const double cpu0 = cpu_seconds(RUSAGE_SELF);
    ScopedSpan window(tlog, "svc.window", round_span.id());
    if (timing) timing->set_parent(window.id());
    const std::uint64_t t_begin = now_ns();
    const bool exchanged = exchange(clients, kSvcWarmupOps, kTotal, ex, tlog, window.id(), &error);
    const std::uint64_t t_end = now_ns();
    window.stop();
    const double cpu_s = cpu_seconds(RUSAGE_SELF) - cpu0;
    const svc::Server::Stats stats1 = server.stats();
    const std::uint64_t messages = mp->service().messages_processed() - messages0;
    for (auto& client : clients) client->close();
    server.stop();
    if (!exchanged) return {error};

    lin::History history;
    history.reserve(kTotal);
    OpTally tally;
    for (std::uint64_t id = 0; id < kTotal; ++id) {
      switch (static_cast<svc::Status>(ex.status[id])) {
        case svc::Status::kOk: break;
        case svc::Status::kTimeout: ++tally.timeout; continue;
        case svc::Status::kShed: ++tally.shed; continue;
        default: ++tally.error; continue;
      }
      history.push_back(lin::Operation{static_cast<double>(ex.sent_ns[id]),
                                       static_cast<double>(ex.recv_ns[id]), ex.value[id],
                                       static_cast<std::uint32_t>(id % kSvcConns)});
    }
    tally.ok = kSvcRoundOps - std::min(kSvcRoundOps, tally.failed());
    result.tally.ok += tally.ok;
    result.tally.timeout += tally.timeout;
    result.tally.shed += tally.shed;
    result.tally.error += tally.error;
    if (tally.failed() != 0) {
      return {std::to_string(tally.failed()) + " requests were not answered ok"};
    }
    const Verdict verdict = verify_round(history, backend->network().output_width(), tlog,
                                         round_span.id(), rotation);
    if (!verdict.failure.empty()) return {verdict.failure};
    result.notes.push_back(def24_note("svc-window round (over the wire)", verdict));

    const auto begin = static_cast<double>(t_begin);
    const auto end = static_cast<double>(t_end) + 1.0;
    if (window_latencies(history, begin, end).size() != kSvcRoundOps) {
      return {"timed window lost requests"};
    }
    std::string failure;
    if (!add_windows(out, history, begin, end, kSvcWindowOps, &failure)) return {failure};
    out.add("setup_s", setup_s);
    out.add("verify_s", verdict.seconds());
    out.add("cpu_us_per_op", cpu_s * 1e6 / static_cast<double>(kSvcRoundOps));
    out.add("peak_rss_mb", peak_rss_mb());
    if (!traced) return {};

    const double requests = static_cast<double>(stats1.requests - stats0.requests);
    out.add("svc.requests_per_batch", requests / static_cast<double>(stats1.batches - stats0.batches));
    out.add("svc.wakes_per_kreq", static_cast<double>(stats1.wakes - stats0.wakes) * 1e3 / requests);
    out.add("svc.largest_batch", static_cast<double>(stats1.largest_batch));
    out.add("mp.messages_per_op", static_cast<double>(messages) / static_cast<double>(kSvcRoundOps));
    out.add("mp.pool_slabs", pool_slabs);
    out.add("lin.check_s", verdict.check_s);
    out.add("lin.range_s", verdict.range_s);
    std::vector<double> plain_ns, until_ns;
    for (std::uint64_t id = kSvcWarmupOps; id < kTotal; ++id) {
      const double ns = static_cast<double>(ex.recv_ns[id] - ex.sent_ns[id]);
      (is_count_until(id) ? until_ns : plain_ns).push_back(ns);
    }
    out.add("svc.count.p50_us", median(plain_ns) / 1e3);
    out.add("svc.count_until.p50_us", median(until_ns) / 1e3);
    round_span.stop();
    const std::vector<Span> spans = take_spans(*log, result);
    const TimingBackend::Names& names = timing->names();
    out.add("svc.client.flush_us.p50", span_percentile(spans, "svc.client.flush", 0.5, 1e3));
    out.add("mp.begin_ns.p50", span_percentile(spans, names.begin, 0.5, 1.0));
    out.add("mp.collect_us.p50", span_percentile(spans, names.collect, 0.5, 1e3));
    out.add("mp.collect_us.p99", span_percentile(spans, names.collect, 0.99, 1e3));
    out.add("mp.collect_until_us.p50", span_percentile(spans, names.collect_until, 0.5, 1e3));
    return {};
  });
  if (result.correct) finish(options, collected, result);
  return result;
}

// --- deploy-pipeline -------------------------------------------------------------

constexpr char kDeploySpec[] = "rt:bitonic:8?ws=perfbench&tiles=1&pipeline=1";
constexpr std::uint32_t kDeployBatch = 32;
constexpr std::uint64_t kDeployRoundOps = 500'000;
constexpr std::size_t kDeployWindowOps = 50'000;  ///< about 5 ms; see add_windows()
constexpr std::uint64_t kDeployWarmupOps = 200'000;

deploy::DeployOptions deploy_options(std::uint64_t ops) {
  deploy::DeployOptions options;
  options.spec = run::parse_spec_or_die(kDeploySpec);
  options.tiles = 1;
  options.threads_per_tile = 1;
  options.pipeline = true;
  options.batch = kDeployBatch;
  options.total_ops = ops;
  return options;
}

WorkloadResult deploy_pipeline(const RunOptions& options, SpanLog* log) {
  WorkloadResult result;
  {
    const deploy::DeployReport warmup = deploy::run_pipeline_deployment(deploy_options(kDeployWarmupOps));
    if (!warmup.ok) {
      result.correct = false;
      result.failure = "deploy-pipeline: warm-up: " + warmup.error;
      return result;
    }
  }
  const deploy::DeployOptions round_options = deploy_options(kDeployRoundOps);

  Collected collected;
  drive(options, result, [&](std::size_t rotation, bool traced) -> Round {
    SpanLog* tlog = traced ? log : nullptr;
    Rounds& out = traced ? collected.traced : collected.plain;
    ScopedSpan round_span(tlog, "bench.round");

    const double children0 = cpu_seconds(RUSAGE_CHILDREN);
    ScopedSpan call(tlog, "deploy.run_pipeline_deployment", round_span.id());
    const std::uint64_t call_start = now_ns();
    const deploy::DeployReport report = deploy::run_pipeline_deployment(round_options);
    const std::uint64_t call_end = now_ns();
    call.stop();
    const double children_cpu = cpu_seconds(RUSAGE_CHILDREN) - children0;
    if (!report.ok) {
      return {report.error.empty() ? report.counting_message : report.error};
    }
    if (report.ops_recorded != kDeployRoundOps || report.kills != 0 ||
        report.guarantee != deploy::DeployReport::Guarantee::kLinearizable ||
        !report.counting_ok || !report.step_ok) {
      return {"deployment checks failed: " + report.counting_message};
    }
    result.tally.ok += report.ops_recorded;
    result.tally.lost += report.lost_values;

    double first_start = report.history.front().start;
    double last_end = report.history.front().end;
    for (const lin::Operation& op : report.history) {
      first_start = std::min(first_start, op.start);
      last_end = std::max(last_end, op.end);
    }
    const double boot_s = (first_start - static_cast<double>(call_start)) * 1e-9;
    const double post_s = (static_cast<double>(call_end) - last_end) * 1e-9;
    if (traced) {
      // The call's phases, cut at the history's first start and last end.
      const auto phase = [&](const char* name, std::uint64_t from, std::uint64_t to) {
        Span span;
        span.name = name;
        span.parent = call.id();
        span.start_ns = from;
        span.end_ns = to;
        log->record(span);
      };
      const auto first = static_cast<std::uint64_t>(first_start);
      const auto last = static_cast<std::uint64_t>(last_end);
      phase("deploy.boot", call_start, first);
      phase("deploy.run", first, last);
      phase("deploy.post", last, call_end);
    }

    // The call's own merge and checks run on this thread too, but unpinned,
    // since the tiles it forks inherit the thread's mask. They land in
    // deploy.post_s, not in verify_s.
    const Verdict verdict = verify_round(report.history, 8, tlog, round_span.id(), rotation);
    if (!verdict.failure.empty()) return {verdict.failure};
    result.notes.push_back(def24_note("deploy-pipeline round (merged history)", verdict));
    std::string failure;
    if (!add_windows(out, report.history, first_start, last_end + 1.0, kDeployWindowOps, &failure)) {
      return {failure};
    }
    out.add("setup_s", boot_s);
    out.add("verify_s", verdict.seconds());
    out.add("cpu_us_per_op", children_cpu * 1e6 / static_cast<double>(kDeployRoundOps));
    out.add("peak_rss_mb", peak_rss_mb());
    if (!traced) return {};

    out.add("deploy.boot_s", boot_s);
    out.add("deploy.makespan_s", report.makespan_ns * 1e-9);
    out.add("deploy.post_s", post_s);
    out.add("deploy.children_cpu_s", children_cpu);
    out.add("deploy.dup_requests", static_cast<double>(report.dup_requests));
    out.add("lin.check_s", verdict.check_s);
    out.add("lin.range_s", verdict.range_s);
    round_span.stop();
    take_spans(*log, result);
    return {};
  });
  if (result.correct) finish(options, collected, result);
  return result;
}

// --- psim-figs -------------------------------------------------------------------

constexpr std::uint64_t kPsimCellOps = 5000;
/// The seed results/fig5.txt and results/fig6.txt were recorded with.
constexpr std::uint64_t kPsimFigureSeed = 20260704;
constexpr std::uint32_t kConcurrency[] = {4, 16, 64, 128, 256};
constexpr std::uint64_t kWaits[] = {100, 1000, 10000, 100000};

struct Cell {
  bool diffracting = false;
  std::uint32_t n = 0;
  std::uint64_t wait = 0;
  double fraction = 0.0;
  std::string expected;  ///< its CSV row in the checked-in figure
};

/// The CSV rows of a checked-in figure, keyed by "structure,W,n".
bool load_figure_rows(const std::string& path, std::map<std::string, std::string>* rows,
                      std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot read " + path;
    return false;
  }
  std::string line;
  bool in_csv = false;
  while (std::getline(in, line)) {
    if (line.rfind("CSV:", 0) == 0) {
      in_csv = true;
      continue;
    }
    if (!in_csv || line.empty()) continue;
    std::size_t cut = 0;
    for (int field = 0; field < 3 && cut != std::string::npos; ++field) {
      cut = line.find(',', cut == 0 ? 0 : cut + 1);
    }
    if (cut == std::string::npos) {
      *error = path + ": malformed CSV row '" + line + "'";
      return false;
    }
    (*rows)[line.substr(0, cut)] = line;
  }
  return true;
}

std::string csv_row(const Cell& cell, const run::RunReport& report) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s,%llu,%u,%.5f,%.1f,%.2f", cell.diffracting ? "dtree" : "bitonic",
                static_cast<unsigned long long>(cell.wait), cell.n, report.analysis.fraction(),
                report.avg_tog, report.avg_c2_over_c1);
  return buf;
}

/// One worker per vCPU, at most four: each cell then runs on every vCPU in
/// turn over the rounds (see PinnedTo). With two workers on two fixed vCPUs,
/// whole runs spread 14-29% (IQR/median over seeds), as fast or as slow as
/// the two vCPUs were.
constexpr unsigned kPsimWorkers = 4;

/// One cell's outcome in one round; empty `failure` means its checks passed.
struct CellRun {
  std::string failure;
  std::uint64_t ops = 0;
  double setup_s = 0.0;  ///< make_backend
  double run_s = 0.0;    ///< Runner::run, simulation plus the Runner's analysis
  double cpu_s = 0.0;    ///< this thread's CPU over Runner::run
  double verify_s = 0.0;
  double check_s = 0.0;
  double range_s = 0.0;
  double cycles = 0.0;   ///< simulated makespan
};

struct CellSamples {
  std::vector<double> run_s, setup_s, verify_s, cpu_s;
};

/// Runs one cell on the calling thread and checks it: the counting and step
/// properties, the Runner's Def 2.4 count against lin::check's, and its CSV
/// row against the checked-in figure.
CellRun run_cell(const Cell& cell, SpanLog* log, std::uint64_t parent) {
  static const run::BackendSpec kBitonic = run::parse_spec_or_die("psim:bitonic:32");
  static const run::BackendSpec kTree = run::parse_spec_or_die("psim:tree:32?diffraction=on");
  CellRun out;
  ScopedSpan make(log, "run.make_backend", parent);
  const std::unique_ptr<run::CountingBackend> backend =
      run::make_backend(cell.diffracting ? kTree : kBitonic);
  out.setup_s = make.stop();
  std::unique_ptr<TimingBackend> timing;
  ScopedSpan run_span(log, "run.runner", parent);
  if (log != nullptr) {
    timing = std::make_unique<TimingBackend>(*backend, *log);
    timing->set_parent(run_span.id());
  }
  run::Workload workload;
  workload.threads = cell.n;
  workload.total_ops = kPsimCellOps;
  workload.delayed_fraction = cell.fraction;
  workload.wait = cell.wait;
  workload.seed = kPsimFigureSeed;
  const double cpu0 = cpu_seconds(RUSAGE_THREAD);
  const run::RunReport report =
      run::Runner().run(timing ? static_cast<run::CountingBackend&>(*timing) : *backend, workload);
  out.run_s = run_span.stop();
  out.cpu_s = cpu_seconds(RUSAGE_THREAD) - cpu0;
  if (!report.ok) {
    out.failure = "Runner rejected a cell: " + report.error;
    return out;
  }
  // Every simulated processor finishes the op it is in when the quota runs
  // out, so a cell completes at least kPsimCellOps.
  out.ops = report.history.size();
  out.cycles = report.makespan;
  if (out.ops < kPsimCellOps) {
    out.failure = "a cell completed too few operations";
    return out;
  }
  const Verdict verdict =
      check_history(report.history, backend->network().output_width(), log, parent);
  out.verify_s = verdict.seconds();
  out.check_s = verdict.check_s;
  out.range_s = verdict.range_s;
  if (!verdict.failure.empty()) {
    out.failure = verdict.failure;
  } else if (verdict.def24.nonlinearizable_ops != report.analysis.nonlinearizable_ops) {
    out.failure = "the Runner's Def 2.4 count differs from lin::check's";
  } else if (const std::string row = csv_row(cell, report); row != cell.expected) {
    out.failure = "row '" + row + "' differs from the checked-in '" + cell.expected + "'";
  }
  return out;
}

WorkloadResult psim_figs(const RunOptions& options, SpanLog* log) {
  WorkloadResult result;
  std::vector<Cell> cells;
  for (const auto& [figure, fraction] : {std::pair{"fig5", 0.25}, std::pair{"fig6", 0.50}}) {
    const std::string path = options.root + "/results/" + figure + ".txt";
    std::map<std::string, std::string> rows;
    std::string error;
    if (!load_figure_rows(path, &rows, &error)) {
      result.correct = false;
      result.failure = "psim-figs: " + error;
      return result;
    }
    for (const bool diffracting : {false, true}) {
      for (const std::uint64_t wait : kWaits) {
        for (const std::uint32_t n : kConcurrency) {
          const std::string key = std::string(diffracting ? "dtree" : "bitonic") + "," +
                                  std::to_string(wait) + "," + std::to_string(n);
          const auto row = rows.find(key);
          if (row == rows.end()) {
            result.correct = false;
            result.failure = "psim-figs: " + path + " has no row " + key;
            return result;
          }
          cells.push_back(Cell{diffracting, n, wait, fraction, row->second});
        }
      }
    }
  }
  // Every cell's timings in every untraced round. The end-to-end numbers
  // sum each cell's lowest over the rounds: a cell is single-threaded
  // computation, which the shared host slows by 10-30% for seconds at a
  // time (a whole round read anywhere from 134k to 185k simulated ops/s
  // within one run), and a cell's fastest round is the one it ran
  // undisturbed, on the fastest vCPU. Worker w runs the cells c with
  // c % workers == w, pinned to the (w + rotation)-th CPU, so a cell moves
  // to the next vCPU every round. The cells run in the figures' order
  // whatever the seed: their inputs are fixed by the checked-in figures.
  std::vector<CellSamples> samples(cells.size());
  std::vector<std::size_t> cell_ops(cells.size(), 0);  // the same every round
  const unsigned workers = std::clamp(static_cast<unsigned>(allowed_cpus().size()), 1u, kPsimWorkers);

  Collected collected;
  drive(options, result, [&](std::size_t rotation, bool traced) -> Round {
    SpanLog* tlog = traced ? log : nullptr;
    ScopedSpan round_span(tlog, "bench.round");
    std::vector<CellRun> runs(cells.size());
    {
      std::vector<std::jthread> threads;
      for (unsigned w = 0; w < workers; ++w) {
        threads.emplace_back([&, w] {
          const PinnedTo pin(w + rotation);
          for (std::size_t c = w; c < cells.size(); c += workers) {
            runs[c] = run_cell(cells[c], tlog, round_span.id());
          }
        });
      }
    }
    CellRun total;
    for (std::size_t c = 0; c < cells.size(); ++c) {
      const CellRun& run = runs[c];
      if (!run.failure.empty()) return {run.failure};
      cell_ops[c] = run.ops;
      total.ops += run.ops;
      total.setup_s += run.setup_s;
      total.run_s += run.run_s;
      total.check_s += run.check_s;
      total.range_s += run.range_s;
      total.cycles += run.cycles;
      if (!traced) {
        samples[c].run_s.push_back(run.run_s);
        samples[c].setup_s.push_back(run.setup_s);
        samples[c].verify_s.push_back(run.verify_s);
        samples[c].cpu_s.push_back(run.cpu_s);
      }
    }
    result.tally.ok += total.ops;
    if (!traced) return {};

    const double sim_ops = static_cast<double>(total.ops);
    Rounds& out = collected.traced;
    out.add("throughput_ops_s", sim_ops / total.run_s);
    round_span.stop();
    const std::vector<Span> spans = take_spans(*log, result);
    const double simulate_s = span_seconds(spans, "psim.simulate");
    out.add("psim.simulate_s", simulate_s);
    out.add("psim.host_ns_per_sim_op", simulate_s * 1e9 / sim_ops);
    out.add("psim.sim_cycles", total.cycles);
    out.add("run.setup_s", total.setup_s);
    out.add("run.analysis_s", total.run_s - simulate_s);
    out.add("lin.check_s", total.check_s);
    out.add("lin.range_s", total.range_s);
    return {};
  });
  if (!result.correct) return result;

  // Latency on psim is host time per simulated op: each op gets its cell's
  // lowest over the rounds.
  Rounds& out = collected.plain;
  double ops = 0.0, run_s = 0.0, setup_s = 0.0, verify_s = 0.0, cpu_s = 0.0;
  std::vector<double> per_op_ns;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const auto lowest = [](const std::vector<double>& v) { return *std::min_element(v.begin(), v.end()); };
    const double cell_run_s = lowest(samples[c].run_s);
    per_op_ns.insert(per_op_ns.end(), cell_ops[c],
                     cell_run_s * 1e9 / static_cast<double>(cell_ops[c]));
    ops += static_cast<double>(cell_ops[c]);
    run_s += cell_run_s;
    setup_s += lowest(samples[c].setup_s);
    verify_s += lowest(samples[c].verify_s);
    cpu_s += lowest(samples[c].cpu_s);
  }
  std::string failure;
  if (!add_latency(out, per_op_ns, &failure)) {
    result.correct = false;
    result.failure = "psim-figs: " + failure;
    return result;
  }
  out.add("throughput_ops_s", ops / run_s);
  out.add("setup_s", setup_s);
  out.add("verify_s", verify_s);
  out.add("cpu_us_per_op", cpu_s * 1e6 / ops);
  out.add("peak_rss_mb", peak_rss_mb());
  const std::string lowests = "each of the " + std::to_string(cells.size()) +
                              " cells' lowest over " +
                              std::to_string(samples.front().run_s.size()) + " rounds";
  for (const char* name : {"throughput_ops_s", "setup_s", "verify_s", "cpu_us_per_op"}) {
    out.note(name, "sum of " + lowests);
  }
  const std::string what = "host time per simulated op, " + lowests + ", over " +
                           std::to_string(per_op_ns.size()) + " ops";
  out.note("latency_p50_us", "p50 of " + what);
  out.note("latency_p99_us", "p99 of " + what);
  finish(options, collected, result);
  return result;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {"rt-closed", "svc-window", "deploy-pipeline",
                                                  "psim-figs"};
  return kNames;
}

WorkloadResult run_workload(const RunOptions& options, SpanLog* log) {
  busy_cores(kBusyWarmupSeconds);
  if (options.workload == "rt-closed") return rt_closed(options, log);
  if (options.workload == "svc-window") return svc_window(options, log);
  if (options.workload == "deploy-pipeline") return deploy_pipeline(options, log);
  if (options.workload == "psim-figs") return psim_figs(options, log);
  WorkloadResult unknown;
  unknown.correct = false;
  unknown.failure = "unknown workload '" + options.workload + "'";
  return unknown;
}

}  // namespace perfbench
