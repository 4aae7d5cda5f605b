// TimingBackend: a run::CountingBackend decorator that records a span around
// every call it forwards. It forwards every virtual unchanged, so
// run::Runner and svc::Server drive it exactly as they drive the bare
// backend, and it hands the inner spec to the base class, so limits the
// callers read from spec() (the Runner's rt `threads=` bound) are the inner
// backend's. Only the traced run uses it.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <span>

#include "run/backend.h"
#include "spans.h"

namespace perfbench {

class TimingBackend final : public cnet::run::CountingBackend {
 public:
  /// `inner` and `log` are borrowed and must outlive the decorator.
  TimingBackend(cnet::run::CountingBackend& inner, SpanLog& log);

  /// Parent id stamped on the operation spans recorded from now on.
  void set_parent(std::uint64_t parent) { parent_.store(parent, std::memory_order_relaxed); }

  const cnet::topo::Network& network() const override { return inner_.network(); }
  bool live() const override { return inner_.live(); }
  const char* time_unit() const override { return inner_.time_unit(); }

  std::uint64_t count(std::uint32_t thread_id) override;
  void count_batch(std::uint32_t thread_id, std::span<std::uint64_t> out) override;
  std::uint64_t count_delayed(std::uint32_t thread_id, std::uint64_t wait_ns) override;
  TimedCount count_until(std::uint32_t thread_id, std::uint64_t wait_ns,
                         std::uint64_t timeout_ns) override;

  bool supports_async_count() const override { return inner_.supports_async_count(); }
  PendingCount count_begin(std::uint32_t thread_id, std::uint64_t wait_ns) override;
  std::uint64_t count_collect(const PendingCount& pending) override;
  TimedCount count_collect_until(const PendingCount& pending,
                                 std::chrono::steady_clock::time_point deadline) override;
  DrainResult drain(std::uint64_t deadline_ns) override;

  cnet::run::SimulatedRun simulate(const cnet::run::Workload& workload) override;

  cnet::fault::Injector* fault_injector() override { return inner_.fault_injector(); }
  bool set_recorder(cnet::sched::Recorder* recorder) override {
    return inner_.set_recorder(recorder);
  }
  cnet::rt::DegradeGuard::Status degrade_status() const override {
    return inner_.degrade_status();
  }
  void register_metrics(cnet::obs::MetricsRegistry& registry) const override {
    inner_.register_metrics(registry);
  }
  double c2c1_estimate() const override { return inner_.c2c1_estimate(); }

  /// Span names, per inner family ("rt.count", "mp.begin", "psim.simulate").
  struct Names {
    const char* count;
    const char* count_batch;
    const char* count_delayed;
    const char* count_until;
    const char* begin;
    const char* collect;
    const char* collect_until;
    const char* drain;
    const char* simulate;
  };
  const Names& names() const { return names_; }

 private:
  void record(const char* name, std::uint64_t start_ns, std::uint64_t arg);

  cnet::run::CountingBackend& inner_;
  SpanLog& log_;
  const Names& names_;
  std::atomic<std::uint64_t> parent_{0};
};

}  // namespace perfbench
