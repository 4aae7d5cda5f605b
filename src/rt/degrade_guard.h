// DegradeGuard: the runtime enforcement of Cor 3.9's timing assumption on
// the real-thread backend.
//
// The paper's result is conditional — a counting network is linearizable
// for *any* schedule iff link delays satisfy c2 <= 2*c1 (Cor 3.9) — and the
// obs layer already measures the observable counterpart of that ratio
// online (CounterMetrics::c2c1_estimate, the p90/p10 hop-latency ratio).
// The guard closes the loop: it samples the estimator as tokens flow and,
// the first time the estimate crosses the threshold with enough evidence,
// trips exactly once into the configured policy:
//
//   * kPad    — Cor 3.12's pass-through padding, engaged live. The pad
//               geometry (prefix length for the configured ratio bound k)
//               is fixed at construction; at trip time the guard prices one
//               pass hop at the *measured* c1 (the hop-latency p10) and
//               every subsequent token busy-waits pad_len * c1 before
//               entering the network. On real threads this IS the padded
//               routing table: a literal topo::make_padded network would
//               compile its pass chains away on the fast path (see
//               rt/network_counter.h — pass nodes cost only time, never
//               routing), and a *fresh* padded counter could not inherit
//               the live balancer state mid-run without duplicating values.
//               Keeping the counter and charging the pass-chain time at entry
//               preserves both the counting state and the Cor 3.12 timing
//               semantics.
//   * kReport — measurement posture (cf. quantitative quiescent
//               consistency / distributional linearizability): leave the
//               timing alone and downgrade the run's advertised guarantee
//               from `linearizable` to `counting-only`, attaching the
//               offending hop quantiles (run::RunReport carries the flip).
//
// The guard never untrips: timing assumptions that broke once make the
// whole run's linearizability claim void, so the flip is latched and the
// report shows the estimate that caused it.
#pragma once

#include <atomic>
#include <cstdint>

#include "topo/builders.h"

namespace cnet::obs {
struct CounterMetrics;  // obs/backend_metrics.h
}

namespace cnet::rt {

/// What the guard does when the online estimate crosses the threshold.
enum class DegradePolicy : std::uint8_t {
  kOff,     ///< no guard
  kPad,     ///< engage the Cor 3.12 pass-through padding (policy a)
  kReport,  ///< downgrade the advertised guarantee to counting-only (policy b)
};

class DegradeGuard {
 public:
  /// Trip when estimate > kThreshold: Cor 3.9's bound.
  static constexpr double kThreshold = 2.0;
  /// Hop-latency samples required before the estimate is trusted (a
  /// handful of early samples make a meaningless ratio).
  static constexpr std::uint64_t kMinSamples = 128;
  /// Ratio bound k the padded fallback is built for (Cor 3.12 prescribes
  /// prefix length from k when a worse ratio is known).
  static constexpr std::uint32_t kPadK = 4;
  /// Tokens between estimator checks (per guard, relaxed counting).
  static constexpr std::uint32_t kCheckPeriod = 1024;

  struct Status {
    DegradePolicy policy = DegradePolicy::kOff;
    bool tripped = false;
    double estimate = 0.0;  ///< the estimate that tripped (or last checked)
    double hop_p10 = 0.0;   ///< offending hop quantiles at trip time
    double hop_p90 = 0.0;
    std::uint64_t pad_ns = 0;  ///< per-token pre-entry pad (kPad, tripped)
    std::uint32_t pad_len = 0; ///< Cor 3.12 prefix length for kPadK
  };

  /// `metrics` is borrowed and must outlive the guard; `net_depth` sizes
  /// the Cor 3.12 prefix.
  DegradeGuard(DegradePolicy policy, const obs::CounterMetrics* metrics,
               std::uint32_t net_depth);

  /// Token-path hook: advances the token clock by `tokens` (a batch counts
  /// all of its tokens) and, whenever the clock crosses a kCheckPeriod
  /// boundary, runs one estimator check (snapshot + quantiles — rare by
  /// construction). Cheap once tripped: a single relaxed load.
  void on_token(std::uint64_t tokens);

  /// Feeds one explicit estimate through the trip logic — the deterministic
  /// unit-test entry (also used by on_token internally). Returns tripped().
  bool check_estimate(double estimate, double hop_p10, double hop_p90);

  bool tripped() const { return tripped_.load(std::memory_order_acquire); }

  /// Pre-entry busy-wait the padded fallback charges each token; 0 unless
  /// the policy is kPad and the guard has tripped.
  std::uint64_t pad_ns() const {
    return tripped_.load(std::memory_order_acquire) ? pad_ns_.load(std::memory_order_acquire)
                                                    : 0;
  }

  Status status() const;

 private:
  void check_metrics();

  DegradePolicy policy_;
  const obs::CounterMetrics* metrics_;
  std::uint32_t pad_len_;

  std::atomic<bool> tripped_{false};
  std::atomic<std::uint64_t> pad_ns_{0};
  std::atomic<std::uint64_t> tokens_since_check_{0};
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
