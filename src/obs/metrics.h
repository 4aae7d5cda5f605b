// Low-overhead metrics primitives shared by all three execution backends
// (rt, mp, psim): thread-sharded counters, log-bucketed latency histograms,
// and StateCounts, which read what the executors already count.
//
// Design rules, in order:
//  1. A write must never contend with another thread's write. Every metric
//     is sharded into kShards cache-line-separated cells; the writer picks
//     the shard from its (dense) thread id and issues one relaxed RMW to a
//     line only ~1/kShards of the threads touch.
//  2. Reads are rare and may be slow. value()/snapshot() walk all shards
//     and merge; the result is a *consistent-enough* snapshot (each cell is
//     read atomically, cells are read at slightly different instants), the
//     standard trade of serving-stack stats layers. Totals are monotone:
//     a later snapshot is >= an earlier one, cell-wise.
//  3. No allocation, no locks, no syscalls on the write path.
//
// The histogram buckets by bit width (powers of two), so any uint64 latency
// lands in one of 65 buckets with a single std::bit_width — no search, no
// configuration — and quantiles interpolate geometrically inside a bucket.
// Bucket resolution is a factor of 2; that is deliberate: the layer exists
// to estimate *ratios* (the paper's c2/c1) and tail shifts, not microsecond
// exactness.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "util/cacheline.h"

namespace cnet::obs {

/// Number of shards per metric. A power of two; thread ids are folded with
/// a mask, so any dense id scheme distributes evenly. 32 shards keeps a
/// ShardedCounter at 2 KiB while making same-line collisions unlikely up to
/// a few dozen concurrent writers.
inline constexpr std::uint32_t kShards = 32;
inline constexpr std::uint32_t kShardMask = kShards - 1;

/// Nanosecond monotonic timestamp for rt-side latency metrics.
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// A single logical uint64 counter, sharded per thread.
///
/// add() is one relaxed fetch_add on the caller's shard line and returns
/// the shard's previous value; value() sums the shards (monotone across
/// calls, exact once writers are quiescent).
class ShardedCounter {
 public:
  std::uint64_t add(std::uint32_t thread_id, std::uint64_t n = 1) noexcept {
    return shards_[thread_id & kShardMask].value.fetch_add(n, std::memory_order_relaxed);
  }

  /// Sum over shards. Exact in quiescence; otherwise a lower bound of the
  /// eventual total at the instant the last shard is read.
  std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const auto& shard : shards_) total += shard.value.load(std::memory_order_relaxed);
    return total;
  }

 private:
  struct alignas(kCacheLine) Shard {
    std::atomic<std::uint64_t> value{0};
  };
  std::array<Shard, kShards> shards_{};
};

/// Counts an executor's state already holds (an rt balancer's traversal
/// count is its visit count), read instead of recorded a second time. The
/// executor binds a reader over its state when it attaches the sink, so
/// reads are monotone and exact at quiescence; before the state goes away
/// it calls release(), which keeps the final reading for later reads.
class StateCounts {
 public:
  /// Adds the executor's current counts, index by index, into `out`.
  using Reader = std::function<void(std::span<std::uint64_t> out)>;

  /// Called once, by the executor attaching the owning sink.
  void bind(std::uint32_t size, Reader reader);
  void release();

  std::vector<std::uint64_t> values() const;
  std::uint64_t value() const;  ///< sum of values()

 private:
  mutable std::mutex mutex_;  ///< orders reads against release()
  Reader reader_;
  std::vector<std::uint64_t> kept_;  ///< zeros until release()
};

/// Merged, immutable view of a LogHistogram at one instant.
struct HistogramSnapshot {
  /// buckets[b] counts samples v with std::bit_width(v) == b: bucket 0 is
  /// exactly v == 0, bucket b >= 1 covers [2^(b-1), 2^b - 1].
  std::array<std::uint64_t, 65> buckets{};
  std::uint64_t total = 0;

  /// Inclusive lower edge of bucket b (0 for b == 0).
  static std::uint64_t bucket_lo(std::uint32_t b) {
    return b == 0 ? 0 : std::uint64_t{1} << (b - 1);
  }
  /// Inclusive upper edge of bucket b.
  static std::uint64_t bucket_hi(std::uint32_t b) {
    return b == 0 ? 0 : (std::uint64_t{1} << (b - 1)) + ((std::uint64_t{1} << (b - 1)) - 1);
  }

  /// Approximate q-quantile (q in [0, 1]): finds the bucket holding the
  /// q-th sample and interpolates geometrically inside it. Returns 0 for an
  /// empty histogram. Error is bounded by the factor-of-2 bucket width.
  double quantile(double q) const;

  /// Ratio of two quantiles (hi over lo), the histogram's native estimator
  /// for timing skew. Returns 1.0 when either quantile is 0 or the
  /// histogram is empty (no evidence of skew).
  double quantile_ratio(double lo_q, double hi_q) const;

  /// Multi-line "[lo, hi] count bar" rendering of the occupied buckets.
  std::string ascii(std::size_t width = 40) const;
};

/// Log-bucketed latency histogram, sharded per thread.
///
/// record() costs one bit_width and one relaxed fetch_add on the caller's
/// shard; snapshot() merges shards bucket-wise (same monotonicity contract
/// as ShardedCounter::value()).
class LogHistogram {
 public:
  void record(std::uint32_t thread_id, std::uint64_t value) noexcept {
    const auto bucket = static_cast<std::uint32_t>(std::bit_width(value));
    shards_[thread_id & kShardMask].buckets[bucket].fetch_add(1, std::memory_order_relaxed);
  }

  HistogramSnapshot snapshot() const;

  std::uint64_t total() const { return snapshot().total; }

 private:
  struct alignas(kCacheLine) Shard {
    std::array<std::atomic<std::uint64_t>, 65> buckets{};
  };
  std::array<Shard, kShards> shards_{};
};

}  // namespace cnet::obs
