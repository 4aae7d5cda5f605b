#include "timing_backend.h"

namespace perfbench {
namespace {

using cnet::run::CountingBackend;
using cnet::run::Family;

const TimingBackend::Names& names_for(Family family) {
  static const TimingBackend::Names kRt{
      "rt.count", "rt.count_batch", "rt.count_delayed", "rt.count_until", "rt.begin",
      "rt.collect", "rt.collect_until", "rt.drain", "rt.simulate"};
  static const TimingBackend::Names kMp{
      "mp.count", "mp.count_batch", "mp.count_delayed", "mp.count_until", "mp.begin",
      "mp.collect", "mp.collect_until", "mp.drain", "mp.simulate"};
  static const TimingBackend::Names kPsim{
      "psim.count", "psim.count_batch", "psim.count_delayed", "psim.count_until", "psim.begin",
      "psim.collect", "psim.collect_until", "psim.drain", "psim.simulate"};
  static const TimingBackend::Names kSim{
      "sim.count", "sim.count_batch", "sim.count_delayed", "sim.count_until", "sim.begin",
      "sim.collect", "sim.collect_until", "sim.drain", "sim.simulate"};
  switch (family) {
    case Family::kRt: return kRt;
    case Family::kMp: return kMp;
    case Family::kPsim: return kPsim;
    case Family::kSim: return kSim;
  }
  return kRt;
}

}  // namespace

TimingBackend::TimingBackend(CountingBackend& inner, SpanLog& log)
    : CountingBackend(inner.spec()),
      inner_(inner),
      log_(log),
      names_(names_for(inner.spec().family)) {}

void TimingBackend::record(const char* name, std::uint64_t start_ns, std::uint64_t arg) {
  Span span;
  span.name = name;
  span.parent = parent_.load(std::memory_order_relaxed);
  span.start_ns = start_ns;
  span.end_ns = now_ns();
  span.arg = arg;
  log_.record(span);
}

std::uint64_t TimingBackend::count(std::uint32_t thread_id) {
  const std::uint64_t start = now_ns();
  const std::uint64_t value = inner_.count(thread_id);
  record(names_.count, start, value);
  return value;
}

void TimingBackend::count_batch(std::uint32_t thread_id, std::span<std::uint64_t> out) {
  const std::uint64_t start = now_ns();
  inner_.count_batch(thread_id, out);
  record(names_.count_batch, start, out.size());
}

std::uint64_t TimingBackend::count_delayed(std::uint32_t thread_id, std::uint64_t wait_ns) {
  const std::uint64_t start = now_ns();
  const std::uint64_t value = inner_.count_delayed(thread_id, wait_ns);
  record(names_.count_delayed, start, value);
  return value;
}

CountingBackend::TimedCount TimingBackend::count_until(std::uint32_t thread_id,
                                                       std::uint64_t wait_ns,
                                                       std::uint64_t timeout_ns) {
  const std::uint64_t start = now_ns();
  const TimedCount result = inner_.count_until(thread_id, wait_ns, timeout_ns);
  record(names_.count_until, start, result.value);
  return result;
}

CountingBackend::PendingCount TimingBackend::count_begin(std::uint32_t thread_id,
                                                         std::uint64_t wait_ns) {
  const std::uint64_t start = now_ns();
  const PendingCount pending = inner_.count_begin(thread_id, wait_ns);
  record(names_.begin, start, 0);
  return pending;
}

std::uint64_t TimingBackend::count_collect(const PendingCount& pending) {
  const std::uint64_t start = now_ns();
  const std::uint64_t value = inner_.count_collect(pending);
  record(names_.collect, start, value);
  return value;
}

CountingBackend::TimedCount TimingBackend::count_collect_until(
    const PendingCount& pending, std::chrono::steady_clock::time_point deadline) {
  const std::uint64_t start = now_ns();
  const TimedCount result = inner_.count_collect_until(pending, deadline);
  record(names_.collect_until, start, result.value);
  return result;
}

CountingBackend::DrainResult TimingBackend::drain(std::uint64_t deadline_ns) {
  const std::uint64_t start = now_ns();
  DrainResult result = inner_.drain(deadline_ns);
  record(names_.drain, start, result.strays);
  return result;
}

cnet::run::SimulatedRun TimingBackend::simulate(const cnet::run::Workload& workload) {
  const std::uint64_t start = now_ns();
  cnet::run::SimulatedRun result = inner_.simulate(workload);
  record(names_.simulate, start, result.history.size());
  return result;
}

}  // namespace perfbench
