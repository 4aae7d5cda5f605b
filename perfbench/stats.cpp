#include "stats.h"

#include <algorithm>
#include <cmath>

#include "util/assert.h"

namespace perfbench {

double quantile_sorted(std::span<const double> sorted, double q) {
  CNET_CHECK(!sorted.empty());
  // The epsilon keeps q * n that lands on an integer (0.99 * 1000) from
  // rounding up past it.
  const double rank = std::ceil(q * static_cast<double>(sorted.size()) - 1e-9);
  const std::size_t index = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

std::optional<double> supported_quantile(std::size_t n, double wanted) {
  constexpr std::uint64_t kLadderPerMille[] = {999, 990, 900, 500};
  for (const std::uint64_t per_mille : kLadderPerMille) {
    const double q = static_cast<double>(per_mille) / 1000.0;
    if (q > wanted + 1e-12) continue;
    const std::uint64_t rank = (n * per_mille + 999) / 1000;  // ceil(q * n)
    if (n - rank >= 10) return q;
  }
  return std::nullopt;
}

std::optional<Percentile> percentile(std::vector<double>& samples, double wanted) {
  const std::optional<double> q = supported_quantile(samples.size(), wanted);
  if (!q) return std::nullopt;
  if (!std::is_sorted(samples.begin(), samples.end())) std::sort(samples.begin(), samples.end());
  return Percentile{*q, quantile_sorted(samples, *q), samples.size()};
}

double median(std::vector<double> values) {
  CNET_CHECK(!values.empty());
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2.0;
}

double OpTally::failed_frac() const {
  return attempted() == 0 ? 0.0
                          : static_cast<double>(failed()) / static_cast<double>(attempted());
}

double OpTally::within_limit(std::span<const double> ok_latencies, double limit) const {
  CNET_CHECK_MSG(ok_latencies.size() == ok, "one latency per ok operation");
  if (attempted() == 0) return 0.0;
  const auto met = std::count_if(ok_latencies.begin(), ok_latencies.end(),
                                 [limit](double latency) { return latency <= limit; });
  return static_cast<double>(met) / static_cast<double>(attempted());
}

std::vector<double> window_latencies(const cnet::lin::History& history, double begin, double end) {
  std::vector<double> out;
  out.reserve(history.size());
  for (const cnet::lin::Operation& op : history) {
    if (op.start >= begin && op.start < end) out.push_back(op.end - op.start);
  }
  return out;
}

}  // namespace perfbench
