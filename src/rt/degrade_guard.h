// DegradeGuard: the runtime check of Cor 3.9's timing assumption on the
// real-thread backend.
//
// The paper's result is conditional — a counting network is linearizable
// for *any* schedule iff link delays satisfy c2 <= 2*c1 (Cor 3.9) — and the
// obs layer already measures the observable counterpart of that ratio
// online (CounterMetrics::c2c1_estimate, the p90/p10 hop-latency ratio).
// The guard closes the loop in the measurement posture of quantitative
// relaxation (cf. quantitative quiescent consistency / distributional
// linearizability): it checks the estimator as sampled tokens flow and,
// the first time the estimate crosses the threshold with enough evidence,
// trips exactly once and downgrades the run's advertised guarantee from
// `linearizable` to `counting-only`, attaching the offending hop quantiles
// (run::RunReport carries the flip). It leaves the timing alone.
//
// It offers no Cor 3.12 remedy. Padding restores linearizability only under
// a known bound c2 < k*c1, and only because every pass-through node costs a
// link traversal; real threads cross pass-through nodes in no time (the
// counter resolves them out of its tables), and a ratio measured online on
// a preemptive host bounds nothing (docs/ROBUSTNESS.md, "Degraded mode").
//
// The guard never untrips: timing assumptions that broke once make the
// whole run's linearizability claim void, so the flip is latched and the
// report shows the estimate that caused it.
#pragma once

#include <atomic>
#include <cstdint>

namespace cnet::obs {
struct CounterMetrics;  // obs/backend_metrics.h
}

namespace cnet::rt {

/// What the guard does when the online estimate crosses the threshold.
enum class DegradePolicy : std::uint8_t {
  kOff,     ///< no guard
  kReport,  ///< downgrade the advertised guarantee to counting-only
};

class DegradeGuard {
 public:
  /// Trip when estimate > kThreshold: Cor 3.9's bound.
  static constexpr double kThreshold = 2.0;
  /// Hop-latency samples required before the estimate is trusted (a
  /// handful of early samples make a meaningless ratio).
  static constexpr std::uint64_t kMinSamples = 128;
  /// Sampled tokens between estimator checks: 1,024 tokens at the default
  /// sample period of 64.
  static constexpr std::uint32_t kCheckPeriod = 16;

  struct Status {
    DegradePolicy policy = DegradePolicy::kOff;
    bool tripped = false;
    double estimate = 0.0;  ///< the estimate that tripped (or last checked)
    double hop_p10 = 0.0;   ///< offending hop quantiles at trip time
    double hop_p90 = 0.0;
  };

  /// `metrics` is borrowed and must outlive the guard.
  DegradeGuard(DegradePolicy policy, const obs::CounterMetrics* metrics);

  /// Sampled-token hook, called once a sampled token's hops are recorded:
  /// advances the guard's own sample clock and, every kCheckPeriod samples,
  /// runs one estimator check (snapshot + quantiles). Cheap once tripped: a
  /// single relaxed load.
  void on_sample();

  /// Feeds one explicit estimate through the trip logic — the deterministic
  /// unit-test entry (also used by on_sample internally). Returns tripped().
  bool check_estimate(double estimate, double hop_p10, double hop_p90);

  bool tripped() const { return tripped_.load(std::memory_order_acquire); }

  Status status() const;

 private:
  void check_metrics();

  DegradePolicy policy_;
  const obs::CounterMetrics* metrics_;

  std::atomic<bool> tripped_{false};
  /// Unsharded, so every kCheckPeriod-th sample anywhere checks: a
  /// per-shard clock would delay the first check by the shard count.
  std::atomic<std::uint64_t> samples_{0};
  std::atomic<bool> checking_{false};  ///< one snapshotting checker at a time

  // Written once, under the trip latch; read via status() after acquire on
  // tripped_.
  double trip_estimate_ = 0.0;
  double trip_hop_p10_ = 0.0;
  double trip_hop_p90_ = 0.0;
  /// Last estimate a non-tripping check computed (status reporting only).
  std::atomic<double> last_estimate_{0.0};
};

}  // namespace cnet::rt
