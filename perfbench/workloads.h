// The benchmark's four workloads. Each runs fixed-size rounds until its
// time budget is spent, checks every round's output before using any of its
// numbers, and reports medians over rounds.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "spans.h"
#include "stats.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string root;  ///< checkout root; psim-figs reads results/ there
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< e.g. which percentile of how many samples
};

struct WorkloadResult {
  bool correct = true;
  std::string failure;  ///< the first failed check, when !correct
  OpTally tally;        ///< every timed operation, traced rounds included
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;                 ///< traced runs only
  std::map<std::string, double> self_time_s;     ///< per layer, traced rounds
  std::vector<std::string> notes;                ///< Def 2.4 verdicts and the like
};

/// The workload names run_workload() accepts.
const std::vector<std::string>& workload_names();

/// Runs one workload. `log` is non-null exactly for a traced run: rounds
/// then alternate untraced and traced, the traced ones record spans into it
/// and drive the backend through TimingBackend.
WorkloadResult run_workload(const RunOptions& options, SpanLog* log);

}  // namespace perfbench
