// CountingBackend: one interface over the four execution backends, built
// from a BackendSpec. Two execution styles share it:
//
//   * live backends (rt, mp) execute individual operations on the caller's
//     threads — count()/count_batch()/count_delayed(), or issue then collect
//     (count_begin()/count_collect(), which svc::Server serves every batch
//     through); the Runner drives them with real-thread load generators and
//     wall-clock timestamps.
//   * simulated backends (sim, psim) execute a whole Workload in virtual
//     time — simulate() returns the finished history and makespan.
//
// Adapters own their backend instance (and its obs sink when the spec asks
// for metrics); a fresh backend starts counting at 0, so one backend per
// measured run keeps histories checkable by lin::values_form_range.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "fault/injector.h"
#include "lin/history.h"
#include "mp/network_service.h"
#include "obs/backend_metrics.h"
#include "obs/registry.h"
#include "psim/machine.h"
#include "rt/network_counter.h"
#include "run/backend_spec.h"
#include "run/workload.h"
#include "shm/workspace.h"
#include "topo/network.h"

namespace cnet::sched {
class Recorder;  // sched/trace.h
}

namespace cnet::run {

/// What a simulated backend hands back from one Workload execution.
struct SimulatedRun {
  bool ok = false;
  std::string error;  ///< set when !ok (e.g. unsupported arrival process)
  lin::History history;
  double makespan = 0.0;  ///< virtual time of the last completion
  // psim extras (0 elsewhere):
  double avg_tog = 0.0;         ///< mean toggle wait (cycles)
  double avg_c2_over_c1 = 0.0;  ///< the paper's (Tog + W)/Tog
};

class CountingBackend {
 public:
  virtual ~CountingBackend() = default;
  CountingBackend(const CountingBackend&) = delete;
  CountingBackend& operator=(const CountingBackend&) = delete;

  const BackendSpec& spec() const { return spec_; }
  virtual const topo::Network& network() const = 0;

  /// True for rt and mp: operations run on caller threads. False for sim
  /// and psim: the whole workload runs in virtual time via simulate().
  virtual bool live() const = 0;

  /// The unit of every time in this backend's histories and reports.
  virtual const char* time_unit() const = 0;

  // -- live backends only (CHECK-fails on simulated ones) --------------
  // `thread_id` names the issuer, and so its input: every live call enters
  // at network().issuer_input(thread_id), the order that keeps concurrent
  // issuers on disjoint balancers longest (bit reversal on Bitonic[w]).
  /// One counting operation. `thread_id` must be unique among concurrent
  /// callers (and < spec().max_threads on rt).
  virtual std::uint64_t count(std::uint32_t thread_id);
  /// Claims out.size() values in one call (batched where the backend can).
  virtual void count_batch(std::uint32_t thread_id, std::span<std::uint64_t> out);
  /// As count(), busy-waiting `wait_ns` after every node traversal — the
  /// paper's W injection. rt hooks the caller's own walk; mp carries the
  /// wait in the token message and the hosting worker burns it after each
  /// balancer transition.
  virtual std::uint64_t count_delayed(std::uint32_t thread_id, std::uint64_t wait_ns);

  /// Outcome of a deadline-bounded operation: `value` is valid iff `ok`.
  using TimedCount = mp::NetworkService::TimedCount;

  /// Deadline-bounded count_delayed: the deadline is taken before issue,
  /// then count_begin and count_collect_until run. mp implements real
  /// abandonment (the token flies on; its value is parked for recycling —
  /// see mp/network_service.h). On rt the caller IS the executor, so there
  /// is no one to hand the traversal to: the op completes in count_begin
  /// and reports ok, which the Runner surfaces as "deadline not
  /// enforceable" rather than pretending an abandonment happened.
  virtual TimedCount count_until(std::uint32_t thread_id, std::uint64_t wait_ns,
                                 std::uint64_t timeout_ns);

  // -- issue, then collect (boundary batching) --------------------------
  /// Handle to one issued operation (count_begin). POD; resolve with
  /// exactly one count_collect / count_collect_until. A null `cell` is a
  /// ready handle: `value` already holds the op's value. mp hands out
  /// in-flight handles (its token is hosted by the service's workers);
  /// every other backend hands out ready ones.
  using PendingCount = mp::NetworkService::Pending;

  /// True when an issued operation can be abandoned in flight (mp: a
  /// collect that times out cancels its token and parks the value).
  /// False where count_begin runs the op to completion on the caller's
  /// thread (rt), so a deadline can only be honoured before issue: the svc
  /// front-end refuses a kCountUntil whose budget is already spent instead
  /// of issuing it.
  virtual bool supports_async_count() const { return false; }
  /// Issues one operation. The default runs it on the caller's thread
  /// (count_delayed) and returns a ready handle.
  virtual PendingCount count_begin(std::uint32_t thread_id, std::uint64_t wait_ns);
  /// Issues out.size() operations, out[i] resolved exactly as a
  /// count_begin handle. mp sends them as one wave (one token message that
  /// each balancer actor splits by its own count); rt claims them with one
  /// count_batch (one next_batch wave) and returns ready handles, values
  /// ascending; the default calls count_begin(thread_id, 0) per slot.
  virtual void count_begin_batch(std::uint32_t thread_id, std::span<PendingCount> out);
  /// The pending operation's value, blocking until it arrives. The default
  /// resolves ready handles, the only kind the default count_begin makes.
  virtual std::uint64_t count_collect(const PendingCount& pending);
  /// Deadline-bounded collect against an absolute steady_clock deadline;
  /// on mp a timeout abandons the operation on the real slot-CAS
  /// cancellation path (the value is parked for recycling). A ready handle
  /// is ok whatever the deadline.
  virtual TimedCount count_collect_until(const PendingCount& pending,
                                         std::chrono::steady_clock::time_point deadline);

  /// What a post-run quiescence drain recovered.
  struct DrainResult {
    bool quiescent = true;        ///< no tokens left in flight
    std::uint64_t strays = 0;     ///< tokens still in flight at the deadline
    std::uint64_t waited_ns = 0;  ///< wall time the drain took
    /// Orphaned values recovered from the backend's parked-ticket buffer;
    /// the Runner folds them into the counting check so abandoned
    /// operations do not read as holes in the counted range.
    std::vector<std::uint64_t> reclaimed;
  };

  /// Waits (bounded) for in-flight work and collects parked values.
  /// Trivially quiescent on backends whose operations complete on the
  /// caller's thread.
  virtual DrainResult drain(std::uint64_t deadline_ns);

  // -- simulated backends only (CHECK-fails on live ones) --------------
  virtual SimulatedRun simulate(const Workload& workload);

  // -- robustness --------------------------------------------------------
  /// The spec's fault injector, realized for this backend; null when the
  /// spec carries no fault plan. Mutable: the Runner draws client-death
  /// decisions from it and reads the injection totals for the report.
  virtual fault::Injector* fault_injector() { return nullptr; }

  // -- schedule capture --------------------------------------------------
  /// Attaches a sched::Recorder (borrowed; null detaches): every subsequent
  /// operation reports its issue, per-node routing decisions, and committed
  /// value to it, so the run's interleaving can be serialized and replayed
  /// in psim. Live backends only — returns false where capture is
  /// unsupported (simulated backends already are their own schedule).
  virtual bool set_recorder(sched::Recorder*) { return false; }
  /// Degraded-mode guard status (rt only; default-constructed — policy
  /// off — elsewhere).
  virtual rt::DegradeGuard::Status degrade_status() const { return {}; }

  // -- observability ----------------------------------------------------
  /// Registers this backend's obs sink (if the spec enabled one).
  virtual void register_metrics(obs::MetricsRegistry& registry) const;
  /// Online c2/c1 estimate from the obs sink; 0 when no sink is attached.
  virtual double c2c1_estimate() const { return 0.0; }

 protected:
  explicit CountingBackend(BackendSpec spec) : spec_(std::move(spec)) {}
  BackendSpec spec_;
};

/// rt::NetworkCounter on the caller's threads. An external obs sink may be
/// passed (borrowed, pre-tuned — cnet_cli stats does this); otherwise the
/// spec's `metrics` flag selects an internally owned sink.
class RtBackend final : public CountingBackend {
 public:
  explicit RtBackend(const BackendSpec& spec, obs::CounterMetrics* external_metrics = nullptr);

  const topo::Network& network() const override { return counter_.network(); }
  bool live() const override { return true; }
  const char* time_unit() const override { return "ns"; }

  std::uint64_t count(std::uint32_t thread_id) override;
  void count_batch(std::uint32_t thread_id, std::span<std::uint64_t> out) override;
  std::uint64_t count_delayed(std::uint32_t thread_id, std::uint64_t wait_ns) override;
  /// One count_batch over the whole span; every handle comes back ready.
  void count_begin_batch(std::uint32_t thread_id, std::span<PendingCount> out) override;

  void register_metrics(obs::MetricsRegistry& registry) const override;
  double c2c1_estimate() const override;
  fault::Injector* fault_injector() override { return fault_.get(); }
  bool set_recorder(sched::Recorder* recorder) override;
  rt::DegradeGuard::Status degrade_status() const override;

  /// The attached sink (owned or external); null when metrics are off.
  obs::CounterMetrics* metrics() const { return metrics_; }

 private:
  std::unique_ptr<obs::CounterMetrics> owned_metrics_;
  obs::CounterMetrics* metrics_ = nullptr;
  std::unique_ptr<fault::Injector> fault_;  ///< set iff the spec carries a plan
  sched::Recorder* recorder_ = nullptr;     ///< borrowed; null = capture off
  /// Live iff the spec asked for workspace placement (`ws=`): the counter's
  /// balancer state then lives in this named shared segment instead of the
  /// heap. Declared before counter_ — the arena must outlive the counter.
  shm::Workspace workspace_;
  rt::NetworkCounter counter_;
};

/// mp::NetworkService (actor per balancer) behind the live interface.
class MpBackend final : public CountingBackend {
 public:
  explicit MpBackend(const BackendSpec& spec);

  const topo::Network& network() const override { return service_.network(); }
  bool live() const override { return true; }
  const char* time_unit() const override { return "ns"; }

  std::uint64_t count(std::uint32_t thread_id) override;
  /// One wave through the service (mp::NetworkService::count_batch).
  void count_batch(std::uint32_t thread_id, std::span<std::uint64_t> out) override;
  std::uint64_t count_delayed(std::uint32_t thread_id, std::uint64_t wait_ns) override;
  bool supports_async_count() const override { return true; }
  PendingCount count_begin(std::uint32_t thread_id, std::uint64_t wait_ns) override;
  void count_begin_batch(std::uint32_t thread_id, std::span<PendingCount> out) override;
  std::uint64_t count_collect(const PendingCount& pending) override;
  TimedCount count_collect_until(const PendingCount& pending,
                                 std::chrono::steady_clock::time_point deadline) override;
  DrainResult drain(std::uint64_t deadline_ns) override;

  void register_metrics(obs::MetricsRegistry& registry) const override;
  fault::Injector* fault_injector() override { return fault_.get(); }
  bool set_recorder(sched::Recorder* recorder) override;

  mp::NetworkService& service() { return service_; }
  obs::MpMetrics* metrics() const { return metrics_.get(); }

 private:
  std::unique_ptr<obs::MpMetrics> metrics_;
  std::unique_ptr<fault::Injector> fault_;  ///< borrowed by service_; this order
  mp::NetworkService service_;
};

/// The §2 timing-model simulator: virtual-time execution of any arrival
/// process, with the workload's delayed fraction injected as extra link time.
class SimBackend final : public CountingBackend {
 public:
  explicit SimBackend(const BackendSpec& spec);

  const topo::Network& network() const override { return net_; }
  bool live() const override { return false; }
  const char* time_unit() const override { return "units"; }

  SimulatedRun simulate(const Workload& workload) override;
  fault::Injector* fault_injector() override { return fault_.get(); }

 private:
  std::unique_ptr<fault::Injector> fault_;  ///< set iff the spec carries a plan
  topo::Network net_;
};

/// psim::run_workload behind the simulated interface (closed loop only —
/// the machine's processors are the issuers).
class PsimBackend final : public CountingBackend {
 public:
  explicit PsimBackend(const BackendSpec& spec);

  const topo::Network& network() const override { return net_; }
  bool live() const override { return false; }
  const char* time_unit() const override { return "cycles"; }

  SimulatedRun simulate(const Workload& workload) override;

  void register_metrics(obs::MetricsRegistry& registry) const override;
  double c2c1_estimate() const override;
  fault::Injector* fault_injector() override { return fault_.get(); }
  obs::PsimMetrics* metrics() const { return metrics_.get(); }

 private:
  std::unique_ptr<obs::PsimMetrics> metrics_;
  std::unique_ptr<fault::Injector> fault_;  ///< set iff the spec carries a plan
  topo::Network net_;
};

/// Builds the adapter a validated spec names. Never fails for a spec that
/// came out of parse_spec().
std::unique_ptr<CountingBackend> make_backend(const BackendSpec& spec);

/// Parse + build in one step; returns null and sets `*error` on a bad spec.
std::unique_ptr<CountingBackend> make_backend(std::string_view spec_text, std::string* error);

}  // namespace cnet::run
