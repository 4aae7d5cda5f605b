// Statistics helpers of the benchmark: percentiles that say how many
// samples back them, failure accounting against the operations attempted,
// and the timed-window filter that keeps warm-up operations out of every
// reported number.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "lin/history.h"

namespace perfbench {

/// Nearest-rank quantile of an ascending, non-empty sample: the element at
/// index ceil(q * n) - 1 (q = 0 gives the minimum).
double quantile_sorted(std::span<const double> sorted, double q);

/// The highest quantile no higher than `wanted`, from the ladder
/// 0.999 / 0.99 / 0.9 / 0.5, that leaves at least 10 of `n` samples above
/// it. nullopt when not even the median does (n < 20).
std::optional<double> supported_quantile(std::size_t n, double wanted);

/// A reported percentile: the quantile actually taken, its value, and the
/// number of samples behind it.
struct Percentile {
  double q = 0.0;
  double value = 0.0;
  std::size_t samples = 0;
};

/// Sorts `samples` and takes the `wanted` percentile, lowered to
/// supported_quantile(); nullopt when there are too few samples.
std::optional<Percentile> percentile(std::vector<double>& samples, double wanted);

/// Median of a non-empty set (mean of the middle two for an even count).
double median(std::vector<double> values);

/// Where every attempted operation ended. Shed, timed-out, errored, lost
/// and abandoned operations all count as failed.
struct OpTally {
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;
  std::uint64_t timeout = 0;
  std::uint64_t error = 0;
  std::uint64_t lost = 0;
  std::uint64_t abandoned = 0;

  std::uint64_t failed() const { return shed + timeout + error + lost + abandoned; }
  std::uint64_t attempted() const { return ok + failed(); }
  /// failed() / attempted(); 0 when nothing was attempted.
  double failed_frac() const;
  /// Share of the attempted operations that succeeded within `limit`,
  /// given one latency per ok operation: a failed operation misses every
  /// limit.
  double within_limit(std::span<const double> ok_latencies, double limit) const;
};

/// Latencies (end - start) of the operations that started inside
/// [begin, end). Operations issued before `begin` — the warm-up — never
/// enter the timed window, even when they complete inside it.
std::vector<double> window_latencies(const cnet::lin::History& history, double begin, double end);

}  // namespace perfbench
