#include "rt/degrade_guard.h"

#include <cmath>

#include "obs/backend_metrics.h"

namespace cnet::rt {

DegradeGuard::DegradeGuard(DegradePolicy policy, const obs::CounterMetrics* metrics,
                           std::uint32_t net_depth)
    : policy_(policy),
      metrics_(metrics),
      pad_len_(topo::padding_prefix_length(net_depth, kPadK)) {}

void DegradeGuard::on_token(std::uint64_t tokens) {
  if (policy_ == DegradePolicy::kOff || metrics_ == nullptr) return;
  if (tripped_.load(std::memory_order_relaxed)) return;  // latched: nothing to do
  const std::uint64_t before = tokens_since_check_.fetch_add(tokens, std::memory_order_relaxed);
  if (before / kCheckPeriod == (before + tokens) / kCheckPeriod) return;
  // One snapshotting checker at a time; a raced boundary just skips (the
  // next boundary re-checks).
  if (checking_.exchange(true, std::memory_order_acquire)) return;
  check_metrics();
  checking_.store(false, std::memory_order_release);
}

void DegradeGuard::check_metrics() {
#if CNET_OBS
  const obs::HistogramSnapshot hops = metrics_->hop_latency_ns.snapshot();
  if (hops.total < kMinSamples) return;
  const double p10 = hops.quantile(0.1);
  const double p90 = hops.quantile(0.9);
  check_estimate(hops.quantile_ratio(0.1, 0.9), p10, p90);
#endif
}

bool DegradeGuard::check_estimate(double estimate, double hop_p10, double hop_p90) {
  if (policy_ == DegradePolicy::kOff) return false;
  if (tripped_.load(std::memory_order_acquire)) return true;
  last_estimate_.store(estimate, std::memory_order_relaxed);
  if (!(estimate > kThreshold)) return false;

  // Trip. The quantiles are written before the tripped_ release-store, so a
  // reader that sees tripped() == true also sees them.
  trip_estimate_ = estimate;
  trip_hop_p10_ = hop_p10;
  trip_hop_p90_ = hop_p90;
  if (policy_ == DegradePolicy::kPad) {
    // Price one Cor 3.12 pass hop at the measured c1 (the hop-latency p10
    // is its observable counterpart); clamp to >= 1 ns so a degenerate
    // quantile still produces a non-zero pad.
    const double unit = hop_p10 > 1.0 ? hop_p10 : 1.0;
    pad_ns_.store(static_cast<std::uint64_t>(std::llround(unit * pad_len_)),
                  std::memory_order_relaxed);
  }
  tripped_.store(true, std::memory_order_release);
  return true;
}

DegradeGuard::Status DegradeGuard::status() const {
  Status s;
  s.policy = policy_;
  s.tripped = tripped_.load(std::memory_order_acquire);
  s.pad_len = pad_len_;
  if (s.tripped) {
    s.estimate = trip_estimate_;
    s.hop_p10 = trip_hop_p10_;
    s.hop_p90 = trip_hop_p90_;
    s.pad_ns = pad_ns_.load(std::memory_order_relaxed);
  } else {
    s.estimate = last_estimate_.load(std::memory_order_relaxed);
  }
  return s;
}

}  // namespace cnet::rt
