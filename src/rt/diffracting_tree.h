// Convenience wrapper: a diffracting tree [21] as a ready-to-use shared
// counter on real threads. Builds the counting-tree topology and executes it
// with prism balancers.
#pragma once

#include <cstdint>
#include <span>

#include "rt/network_counter.h"

namespace cnet::rt {

class DiffractingTree {
 public:
  /// `width` leaves (power of two, >= 2). See CounterOptions for prism
  /// tuning; `max_threads` bounds the thread ids.
  explicit DiffractingTree(std::uint32_t width, CounterOptions options = make_options());

  /// Returns the next counter value. `thread_id` must be unique among
  /// concurrent callers and < options.max_threads.
  std::uint64_t next(std::uint32_t thread_id) { return counter_.next(thread_id, 0); }

  /// Claims out.size() values in one wave (see NetworkCounter::next_batch);
  /// cheaper than repeated next() when a caller consumes ids in blocks.
  void next_batch(std::uint32_t thread_id, std::span<std::uint64_t> out) {
    counter_.next_batch(thread_id, 0, out);
  }

  std::uint32_t width() const { return counter_.network().output_width(); }
  const NetworkCounter& counter() const { return counter_; }

 private:
  static CounterOptions make_options() {
    CounterOptions options;
    options.diffraction = true;
    return options;
  }

  NetworkCounter counter_;
};

}  // namespace cnet::rt
