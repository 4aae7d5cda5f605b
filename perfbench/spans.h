// Spans the benchmark records around its own calls into each layer, the
// per-layer self time derived from them, and their chrome://tracing dump
// (the trace-event format obs::TraceRing already writes). Spans stay in
// memory; cnet_perfbench writes them out when the run ends.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// CLOCK_MONOTONIC in nanoseconds: the clock of std::chrono::steady_clock
/// and of the deploy tiles' history stamps.
std::uint64_t now_ns();

struct Span {
  const char* name = "";     ///< "<layer>.<call>"; a string literal
  std::uint64_t id = 0;      ///< nonzero for spans that may parent others
  std::uint64_t parent = 0;  ///< id of the enclosing span; 0 = none
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t arg = 0;     ///< call-specific: the value returned, an op count
  std::uint32_t thread = 0;  ///< recording thread, numbered per log

  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
  /// The layer: the name up to its first '.'.
  std::string layer() const;
};

/// Spans from any number of threads. Each thread appends to a buffer of its
/// own without locking; drain() and chrome_json() must not run while any
/// thread records. A thread records into one log at a time.
class SpanLog {
 public:
  SpanLog();
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  void record(const Span& span);
  std::uint64_t new_id() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  /// Moves out every span recorded since the last drain. Spans with an id,
  /// and the first kKeptLeaves spans without one, are also kept for the
  /// chrome dump, so a long run's dump stays bounded.
  std::vector<Span> drain();

  /// The kept spans as a Chrome trace-event JSON document (times in µs
  /// since the log was created).
  std::string chrome_json() const;

  static constexpr std::size_t kKeptLeaves = 50000;

 private:
  struct Buffer {
    std::uint32_t thread = 0;
    std::vector<Span> spans;
  };
  Buffer& local();

  const std::uint64_t generation_;
  const std::uint64_t origin_ns_;
  std::atomic<std::uint64_t> next_id_{1};
  std::mutex mu_;  // guards buffers_ (the vector, not each buffer's spans)
  std::vector<std::unique_ptr<Buffer>> buffers_;
  std::vector<Span> kept_;
  std::size_t kept_leaves_ = 0;
};

/// Times one call on the calling thread. With a log (the traced run) the
/// span is also recorded there; with none it only times.
class ScopedSpan {
 public:
  /// A `leaf` span gets no id, so it can parent nothing and is kept for the
  /// dump only up to SpanLog::kKeptLeaves.
  ScopedSpan(SpanLog* log, const char* name, std::uint64_t parent = 0, bool leaf = false);
  ~ScopedSpan() { stop(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Id to hand a child as its parent (0 when not recording).
  std::uint64_t id() const { return span_.id; }
  /// Ends the span (the first call only) and returns its length in seconds.
  double stop();

 private:
  SpanLog* log_;
  Span span_;
  bool stopped_ = false;
};

/// Self time per layer, in seconds: each span's length minus the part of it
/// its children (spans naming it as parent, from any thread) cover, summed
/// over the spans of each layer.
std::map<std::string, double> self_time_by_layer(const std::vector<Span>& spans);

}  // namespace perfbench
