#include "rt/degrade_guard.h"

#include "obs/backend_metrics.h"

namespace cnet::rt {

DegradeGuard::DegradeGuard(DegradePolicy policy, const obs::CounterMetrics* metrics)
    : policy_(policy), metrics_(metrics) {}

void DegradeGuard::on_sample() {
  if (policy_ == DegradePolicy::kOff || metrics_ == nullptr) return;
  if (tripped_.load(std::memory_order_relaxed)) return;  // latched: nothing to do
  if ((samples_.fetch_add(1, std::memory_order_relaxed) + 1) % kCheckPeriod != 0) return;
  // One snapshotting checker at a time; a raced boundary just skips (the
  // next boundary re-checks).
  if (checking_.exchange(true, std::memory_order_acquire)) return;
  check_metrics();
  checking_.store(false, std::memory_order_release);
}

void DegradeGuard::check_metrics() {
  const obs::HistogramSnapshot hops = metrics_->hop_latency_ns.snapshot();
  if (hops.total < kMinSamples) return;
  const double p10 = hops.quantile(0.1);
  const double p90 = hops.quantile(0.9);
  check_estimate(hops.quantile_ratio(0.1, 0.9), p10, p90);
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
  tripped_.store(true, std::memory_order_release);
  return true;
}

DegradeGuard::Status DegradeGuard::status() const {
  Status s;
  s.policy = policy_;
  s.tripped = tripped_.load(std::memory_order_acquire);
  if (s.tripped) {
    s.estimate = trip_estimate_;
    s.hop_p10 = trip_hop_p10_;
    s.hop_p90 = trip_hop_p90_;
  } else {
    s.estimate = last_estimate_.load(std::memory_order_relaxed);
  }
  return s;
}

}  // namespace cnet::rt
