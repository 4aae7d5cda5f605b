#include "lin/checker.h"

// IWYU: everything used directly, not via transitive includes of checker.h.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "util/assert.h"

namespace cnet::lin {

namespace {

/// Marks "no operation placed here yet" in value_order's rank table.
constexpr std::size_t kUnplaced = ~std::size_t{0};

/// Operation indices in ascending value order. A history whose values are
/// exactly 0..n-1 (every complete live run) places each op at its value's
/// rank in one pass; any other history sorts (value, index) pairs once.
std::vector<std::size_t> value_order(const History& history) {
  const std::size_t n = history.size();
  std::vector<std::size_t> order(n, kUnplaced);
  std::size_t i = 0;
  for (; i < n; ++i) {
    const std::uint64_t value = history[i].value;
    if (value >= n || order[value] != kUnplaced) break;
    order[value] = i;
  }
  if (i == n) return order;

  std::vector<std::pair<std::uint64_t, std::size_t>> keys(n);
  for (i = 0; i < n; ++i) keys[i] = {history[i].value, i};
  std::sort(keys.begin(), keys.end());
  for (i = 0; i < n; ++i) order[i] = keys[i].second;
  return order;
}

/// The last rank q >= from with min_end[q] < t, given min_end[from] < t.
/// min_end is non-decreasing, so gallop up from `from` and bisect the last
/// step: O(log(q - from)).
std::size_t last_rank_before(const double* min_end, std::size_t from, std::size_t n, double t) {
  std::size_t lo = from;  // min_end[lo] < t
  std::size_t step = 1;
  while (step < n - lo && min_end[lo + step] < t) {
    lo += step;
    step *= 2;
  }
  const double* past = std::partition_point(min_end + lo + 1, min_end + std::min(n, lo + step),
                                            [t](double end) { return end < t; });
  return static_cast<std::size_t>(past - min_end) - 1;
}

/// The one Def 2.4 sweep; returns the worst inversion. O is
/// non-linearizable iff the least end time among operations with a strictly
/// larger value comes before O.start. Walking the ranks of `order` from the
/// top keeps that minimum in one pass; min_end[r] is the least end time at
/// ranks >= r, non-decreasing in r, so the last rank whose minimum is still
/// before O.start holds the largest value completed before O started.
/// Appends each violator's index to `violators`.
std::uint64_t sweep(const History& history, const std::vector<std::size_t>& order,
                    std::vector<std::size_t>& violators) {
  const std::size_t n = order.size();
  const auto min_end = std::make_unique_for_overwrite<double[]>(n + 1);
  min_end[n] = std::numeric_limits<double>::infinity();
  std::uint64_t worst = 0;
  std::size_t above = n;  // first rank holding a strictly larger value
  std::uint64_t last_value = 0;  // value at rank r + 1, the one walked last
  for (std::size_t r = n; r-- > 0;) {
    const Operation& op = history[order[r]];
    CNET_CHECK_MSG(op.start <= op.end, "operation ends before it starts");
    if (r + 1 < n && last_value != op.value) above = r + 1;
    if (min_end[above] < op.start) {
      const std::size_t q = last_rank_before(min_end.get(), above, n, op.start);
      worst = std::max(worst, history[order[q]].value - op.value);
      violators.push_back(order[r]);
    }
    min_end[r] = std::min(min_end[r + 1], op.end);
    last_value = op.value;
  }
  return worst;
}

}  // namespace

CheckResult check(const History& history) {
  CheckResult result;
  result.total_ops = history.size();
  result.worst_inversion = sweep(history, value_order(history), result.violating_ops);
  result.nonlinearizable_ops = result.violating_ops.size();
  // Report violators in start order, as a time sweep meets them.
  std::sort(result.violating_ops.begin(), result.violating_ops.end(),
            [&history](std::size_t a, std::size_t b) {
              if (history[a].start != history[b].start) return history[a].start < history[b].start;
              return a < b;
            });
  return result;
}

SeqConsistencyResult check_sequential_consistency(const History& history) {
  SeqConsistencyResult result;
  result.total_ops = history.size();
  // Order each actor's operations by start time (same-actor operations are
  // sequential, so start order is program order), then count descents.
  std::map<std::uint32_t, std::vector<const Operation*>> by_actor;
  for (const Operation& op : history) by_actor[op.actor].push_back(&op);
  for (auto& [actor, ops] : by_actor) {
    std::sort(ops.begin(), ops.end(),
              [](const Operation* a, const Operation* b) { return a->start < b->start; });
    for (std::size_t i = 1; i < ops.size(); ++i) {
      if (ops[i]->value < ops[i - 1]->value) ++result.program_order_violations;
    }
  }
  return result;
}

bool values_form_range(const History& history, std::string* message,
                       std::span<const std::uint64_t> extra) {
  // n values, each below n and none repeated, are exactly 0..n-1.
  const std::size_t n = history.size() + extra.size();
  std::vector<bool> seen(n);
  bool ok = true;
  for (const Operation& op : history) {
    ok = op.value < n && !seen[op.value];
    if (!ok) break;
    seen[op.value] = true;
  }
  for (std::size_t i = 0; ok && i < extra.size(); ++i) {
    ok = extra[i] < n && !seen[extra[i]];
    if (ok) seen[extra[i]] = true;
  }
  if (ok || message == nullptr) return ok;

  // Name the first rank, in sorted order, that holds the wrong value; a
  // failing multiset has one.
  std::vector<std::uint64_t> values(extra.begin(), extra.end());
  values.reserve(n);
  for (const Operation& op : history) values.push_back(op.value);
  std::sort(values.begin(), values.end());
  std::uint64_t rank = 0;
  while (values[rank] == rank) ++rank;
  std::ostringstream msg;
  msg << "counting violated: rank " << rank << " holds value " << values[rank] << " ("
      << n << " ops total)";
  *message = msg.str();
  return false;
}

WindowedChecker::WindowedChecker(double lag) : lag_(lag) { CNET_CHECK(lag >= 0.0); }

void WindowedChecker::add(const Operation& op) {
  CNET_CHECK_MSG(op.start <= op.end, "operation ends before it starts");
  if (!any_seen_ || op.end > max_end_seen_) max_end_seen_ = op.end;
  any_seen_ = true;
  ++total_;
  insert_record(op.end, op.value);
  pending_.push(op);
  // Everything starting at or before the watermark can be judged: under the
  // lag contract no future report can end before such a start.
  drain(max_end_seen_ - lag_);
  evict(max_end_seen_ - 2.0 * lag_);
}

void WindowedChecker::finish() {
  drain(max_end_seen_ + 1.0);
}

void WindowedChecker::drain(double start_cutoff) {
  while (!pending_.empty() && pending_.top().start <= start_cutoff) {
    judge(pending_.top());
    pending_.pop();
  }
}

void WindowedChecker::judge(const Operation& op) {
  // Max value among operations strictly ending before op.start.
  std::uint64_t best = floor_value_;
  bool have = has_floor_;
  auto it = records_.lower_bound(op.start);
  if (it != records_.begin()) {
    --it;
    if (!have || it->second > best) {
      best = it->second;
      have = true;
    }
  }
  if (have && best > op.value) ++violations_;
}

void WindowedChecker::insert_record(double end, std::uint64_t value) {
  // Maintain a strictly increasing staircase of (end -> max value).
  auto it = records_.upper_bound(end);
  if (it != records_.begin()) {
    auto prev = std::prev(it);
    if (prev->second >= value) return;  // dominated by an earlier record
    if (prev->first == end) {
      prev->second = value;
      it = std::next(prev);
      // fall through to erase dominated successors
    } else {
      it = std::next(records_.emplace_hint(it, end, value));
    }
  } else if (!has_floor_ || value > floor_value_) {
    it = std::next(records_.emplace_hint(it, end, value));
  } else {
    return;  // dominated by the floor
  }
  while (it != records_.end() && it->second <= value) it = records_.erase(it);
}

void WindowedChecker::evict(double end_cutoff) {
  auto it = records_.begin();
  while (it != records_.end() && it->first < end_cutoff) {
    floor_value_ = it->second;  // staircase is increasing, so last wins
    has_floor_ = true;
    it = records_.erase(it);
  }
}

}  // namespace cnet::lin
