// MetricsRegistry: the read side of the observability layer. Backends (or
// applications embedding them) register their sharded counters, histograms,
// and derived gauges under dotted names; snapshot() merges everything into a
// plain-data Snapshot that renders as aligned text (for cnet_cli stats) or
// JSON (for scrapers and the bench tooling).
//
// The registry *borrows* the metric objects — registrants must keep them
// alive for the registry's lifetime. Registration is setup-time only (not
// thread-safe); snapshotting is safe concurrently with metric writers and
// yields the usual sharded-merge semantics (see obs/metrics.h).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace cnet::obs {

/// Point-in-time merged view of every registered metric.
struct Snapshot {
  struct CounterSample {
    std::string name;
    std::string unit;
    std::uint64_t value = 0;
  };
  struct GaugeSample {
    std::string name;
    std::string unit;
    double value = 0.0;
  };
  struct HistogramSample {
    std::string name;
    std::string unit;
    HistogramSnapshot histogram;
  };

  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;

  /// Aligned human-readable rendering; histograms show p50/p90/p99 and an
  /// ASCII bar chart of occupied buckets.
  std::string to_text() const;

  /// Single JSON object: {"counters": {...}, "gauges": {...},
  /// "histograms": {name: {"total": n, "p50": ..., "buckets": [[lo, count], ...]}}}.
  std::string to_json() const;
};

class MetricsRegistry {
 public:
  /// Registers a counter under `name` (borrowed pointer): a ShardedCounter,
  /// or a StateCounts (reported as its sum).
  template <class Counter>
  void add_counter(std::string name, std::string unit, const Counter* counter) {
    counters_.push_back(
        {std::move(name), std::move(unit), [counter] { return counter->value(); }});
  }

  /// Registers a derived scalar evaluated at snapshot time (e.g. the c2/c1
  /// estimate, a ratio of other metrics).
  void add_gauge(std::string name, std::string unit, std::function<double()> fn);

  /// Registers a histogram under `name` (borrowed pointer).
  void add_histogram(std::string name, std::string unit, const LogHistogram* histogram);

  Snapshot snapshot() const;

 private:
  struct CounterEntry {
    std::string name, unit;
    std::function<std::uint64_t()> value;
  };
  struct GaugeEntry {
    std::string name, unit;
    std::function<double()> fn;
  };
  struct HistogramEntry {
    std::string name, unit;
    const LogHistogram* histogram;
  };

  std::vector<CounterEntry> counters_;
  std::vector<GaugeEntry> gauges_;
  std::vector<HistogramEntry> histograms_;
};

}  // namespace cnet::obs
