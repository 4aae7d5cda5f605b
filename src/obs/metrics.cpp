#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <utility>

namespace cnet::obs {

void StateCounts::bind(std::uint32_t size, Reader reader) {
  const std::scoped_lock lock(mutex_);
  kept_.assign(size, 0);
  reader_ = std::move(reader);
}

void StateCounts::release() {
  const std::scoped_lock lock(mutex_);
  if (reader_) reader_(kept_);
  reader_ = nullptr;
}

std::vector<std::uint64_t> StateCounts::values() const {
  const std::scoped_lock lock(mutex_);
  std::vector<std::uint64_t> out = kept_;
  if (reader_) reader_(out);
  return out;
}

std::uint64_t StateCounts::value() const {
  const std::vector<std::uint64_t> counts = values();
  return std::accumulate(counts.begin(), counts.end(), std::uint64_t{0});
}

double HistogramSnapshot::quantile(double q) const {
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(total - 1);
  std::uint64_t seen = 0;
  for (std::uint32_t b = 0; b < buckets.size(); ++b) {
    if (buckets[b] == 0) continue;
    const auto next = static_cast<double>(seen + buckets[b]);
    if (rank < next) {
      if (b == 0) return 0.0;
      // Geometric interpolation between the bucket edges: latencies are
      // ratio-scaled quantities, so log-space interpolation is the unbiased
      // within-bucket guess.
      const double lo = static_cast<double>(bucket_lo(b));
      const double hi = static_cast<double>(bucket_hi(b));
      const double frac =
          buckets[b] == 1 ? 0.5 : (rank - static_cast<double>(seen)) /
                                      static_cast<double>(buckets[b] - 1);
      return lo * std::pow(hi / lo, frac);
    }
    seen += buckets[b];
  }
  return static_cast<double>(bucket_hi(64));  // unreachable with total > 0
}

double HistogramSnapshot::quantile_ratio(double lo_q, double hi_q) const {
  const double lo = quantile(lo_q);
  const double hi = quantile(hi_q);
  if (lo <= 0.0 || hi <= 0.0) return 1.0;
  return hi / lo;
}

std::string HistogramSnapshot::ascii(std::size_t width) const {
  std::string out;
  std::uint64_t peak = 0;
  for (const std::uint64_t c : buckets) peak = std::max(peak, c);
  if (peak == 0) return "(empty)\n";
  char line[160];
  for (std::uint32_t b = 0; b < buckets.size(); ++b) {
    if (buckets[b] == 0) continue;
    const auto bar = static_cast<std::size_t>(
        static_cast<double>(buckets[b]) / static_cast<double>(peak) *
        static_cast<double>(width));
    std::snprintf(line, sizeof(line), "[%12llu, %12llu] %10llu ",
                  static_cast<unsigned long long>(bucket_lo(b)),
                  static_cast<unsigned long long>(bucket_hi(b)),
                  static_cast<unsigned long long>(buckets[b]));
    out += line;
    out.append(std::max<std::size_t>(bar, 1), '#');
    out += '\n';
  }
  return out;
}

HistogramSnapshot LogHistogram::snapshot() const {
  HistogramSnapshot snap;
  for (const Shard& shard : shards_) {
    for (std::size_t b = 0; b < snap.buckets.size(); ++b) {
      snap.buckets[b] += shard.buckets[b].load(std::memory_order_relaxed);
    }
  }
  for (const std::uint64_t c : snap.buckets) snap.total += c;
  return snap;
}

}  // namespace cnet::obs
