#include "lin/checker.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace cnet::lin {
namespace {

Operation op(double start, double end, std::uint64_t value) {
  return Operation{start, end, value, 0};
}

/// O(n^2) reference implementation of Def 2.4: the whole CheckResult, with
/// the violators in (start, index) order.
CheckResult brute_force(const History& h) {
  CheckResult result;
  result.total_ops = h.size();
  for (std::size_t i = 0; i < h.size(); ++i) {
    std::uint64_t max_completed = 0;
    bool any_completed = false;
    for (const Operation& other : h) {
      if (other.end < h[i].start && (!any_completed || other.value > max_completed)) {
        max_completed = other.value;
        any_completed = true;
      }
    }
    if (any_completed && max_completed > h[i].value) {
      ++result.nonlinearizable_ops;
      result.worst_inversion = std::max(result.worst_inversion, max_completed - h[i].value);
      result.violating_ops.push_back(i);
    }
  }
  std::stable_sort(result.violating_ops.begin(), result.violating_ops.end(),
                   [&h](std::size_t a, std::size_t b) { return h[a].start < h[b].start; });
  return result;
}

void expect_same(const CheckResult& got, const CheckResult& want) {
  EXPECT_EQ(got.total_ops, want.total_ops);
  EXPECT_EQ(got.nonlinearizable_ops, want.nonlinearizable_ops);
  EXPECT_EQ(got.worst_inversion, want.worst_inversion);
  EXPECT_EQ(got.violating_ops, want.violating_ops);
}

/// Values drawn from a small range: they repeat.
History duplicate_valued_history(Rng& rng) {
  History h;
  for (int i = 0; i < 200; ++i) {
    const double start = rng.unit() * 100.0;
    const double dur = rng.unit() * 20.0;
    h.push_back(op(start, start + dur, rng.below(40)));
  }
  return h;
}

/// Shaped like a run::Runner history: 4 closed-loop issuers on an integer
/// clock (so ends often equal other ops' starts), concatenated issuer by
/// issuer, with values 0..n-1 in a locally disordered order: the rank of a
/// jittered point inside each op.
History runner_shaped_history(Rng& rng) {
  History h;
  std::vector<std::int64_t> point;
  for (std::uint32_t issuer = 0; issuer < 4; ++issuer) {
    std::int64_t t = 0;
    for (int i = 0; i < 50; ++i) {
      const auto dur = static_cast<std::int64_t>(1 + rng.below(8));
      h.push_back(Operation{static_cast<double>(t), static_cast<double>(t + dur), 0, issuer});
      point.push_back(t + static_cast<std::int64_t>(rng.below(static_cast<std::uint64_t>(dur))) +
                      static_cast<std::int64_t>(rng.below(9)) - 4);
      t += dur + static_cast<std::int64_t>(rng.below(2));
    }
  }
  std::vector<std::size_t> by_point(h.size());
  for (std::size_t i = 0; i < by_point.size(); ++i) by_point[i] = i;
  std::stable_sort(by_point.begin(), by_point.end(),
                   [&point](std::size_t a, std::size_t b) { return point[a] < point[b]; });
  for (std::size_t rank = 0; rank < by_point.size(); ++rank) h[by_point[rank]].value = rank;
  return h;
}

TEST(Checker, EmptyHistory) {
  const CheckResult result = check({});
  EXPECT_EQ(result.total_ops, 0u);
  EXPECT_TRUE(result.linearizable());
  EXPECT_EQ(result.fraction(), 0.0);
}

TEST(Checker, SingleOp) {
  const CheckResult result = check({op(0, 1, 0)});
  EXPECT_TRUE(result.linearizable());
  EXPECT_EQ(result.total_ops, 1u);
}

TEST(Checker, SequentialInOrderIsLinearizable) {
  History h;
  for (int i = 0; i < 100; ++i) h.push_back(op(2.0 * i, 2.0 * i + 1, i));
  EXPECT_TRUE(check(h).linearizable());
}

TEST(Checker, Section1ExampleValues) {
  // T0: [0, 10] -> 2 ; T1: [1, 3] -> 1 ; T2: [4, 6] -> 0.
  // T1 completely precedes T2 and returned a larger value: one violation.
  const History h = {op(0, 10, 2), op(1, 3, 1), op(4, 6, 0)};
  const CheckResult result = check(h);
  EXPECT_EQ(result.nonlinearizable_ops, 1u);
  ASSERT_EQ(result.violating_ops.size(), 1u);
  EXPECT_EQ(result.violating_ops[0], 2u);  // T2
  EXPECT_EQ(result.worst_inversion, 1u);
  EXPECT_NEAR(result.fraction(), 1.0 / 3.0, 1e-12);
}

TEST(Checker, OverlapIsNotPrecedence) {
  // Two overlapping ops may return values in either order.
  EXPECT_TRUE(check({op(0, 5, 1), op(3, 8, 0)}).linearizable());
}

TEST(Checker, TouchingEndpointsCountAsOverlap) {
  // end == start: not *completely* preceding, per the strict Def 2.3.
  EXPECT_TRUE(check({op(0, 5, 1), op(5, 8, 0)}).linearizable());
  // strictly before by any margin -> violation
  EXPECT_FALSE(check({op(0, 5, 1), op(5.0001, 8, 0)}).linearizable());
}

TEST(Checker, WorstInversionTracksLargestGap) {
  const History h = {op(0, 1, 100), op(2, 3, 5), op(4, 5, 90)};
  const CheckResult result = check(h);
  EXPECT_EQ(result.nonlinearizable_ops, 2u);
  EXPECT_EQ(result.worst_inversion, 95u);
}

TEST(Checker, ViolationAgainstAnyEarlierOp) {
  // The violating predecessor need not be the latest one.
  const History h = {op(0, 1, 50), op(10, 20, 0), op(2, 3, 7)};
  const CheckResult result = check(h);
  EXPECT_EQ(result.nonlinearizable_ops, 2u);  // ops 1 and 2 both dominated by op 0
}

TEST(Checker, UnsortedInputHandled) {
  History h = {op(4, 6, 0), op(0, 10, 2), op(1, 3, 1)};
  EXPECT_EQ(check(h).nonlinearizable_ops, 1u);
}

TEST(CheckerDeath, RejectsNegativeDuration) {
  EXPECT_DEATH(check({op(5, 3, 0)}), "ends before it starts");
}

class CheckerRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CheckerRandom, MatchesBruteForce) {
  Rng rng(GetParam());
  // Repeated values take the checker's sort branch; the Runner-shaped
  // permutation and a shuffled one (long inversions) take the no-sort one.
  History shuffled = runner_shaped_history(rng);
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1].value, shuffled[rng.below(i)].value);
  }
  for (const History& h : {duplicate_valued_history(rng), runner_shaped_history(rng), shuffled}) {
    const CheckResult result = check(h);
    expect_same(result, brute_force(h));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CheckerRandom, ::testing::Range<std::uint64_t>(0, 10));

TEST(ValuesFormRange, Basics) {
  std::string msg;
  EXPECT_TRUE(values_form_range({}, &msg));
  EXPECT_TRUE(values_form_range({op(0, 1, 1), op(0, 1, 0), op(0, 1, 2)}, &msg));
  EXPECT_TRUE(msg.empty());
  // Each message names the first rank, in sorted order, holding a wrong value.
  EXPECT_FALSE(values_form_range({op(0, 1, 0), op(0, 1, 2)}, &msg));
  EXPECT_EQ(msg, "counting violated: rank 1 holds value 2 (2 ops total)");
  EXPECT_FALSE(values_form_range({op(0, 1, 1), op(0, 1, 0), op(0, 1, 1)}, &msg));
  EXPECT_EQ(msg, "counting violated: rank 2 holds value 1 (3 ops total)");
  EXPECT_FALSE(values_form_range({op(0, 1, 3), op(0, 1, 0), op(0, 1, 1)}, &msg));
  EXPECT_EQ(msg, "counting violated: rank 2 holds value 3 (3 ops total)");
  EXPECT_FALSE(values_form_range({op(0, 1, 1)}, nullptr));

  // Extra values (a drain's reclaimed ones) count as issued: history plus
  // extra must be the range together.
  const std::vector<std::uint64_t> reclaimed = {3, 1};
  EXPECT_TRUE(values_form_range({op(0, 1, 2), op(0, 1, 0)}, &msg, reclaimed));
  EXPECT_FALSE(values_form_range({op(0, 1, 1), op(0, 1, 0), op(0, 1, 2)}, &msg, reclaimed));
  EXPECT_EQ(msg, "counting violated: rank 2 holds value 1 (5 ops total)");
  EXPECT_FALSE(values_form_range({op(0, 1, 2), op(0, 1, 4)}, &msg, reclaimed));
  EXPECT_EQ(msg, "counting violated: rank 0 holds value 1 (4 ops total)");
}

// A bare list of values, with no history, goes in as the extra values.
bool values_are_range(const std::vector<std::uint64_t>& values, std::string* message) {
  return values_form_range({}, message, values);
}

TEST(ValuesAreRange, AcceptsPermutationsOfRange) {
  std::string msg;
  EXPECT_TRUE(values_are_range({}, &msg));
  EXPECT_TRUE(values_are_range({0}, &msg));
  EXPECT_TRUE(values_are_range({2, 0, 1}, &msg));
  EXPECT_TRUE(msg.empty());
}

TEST(ValuesAreRange, RejectsGapsAndDuplicates) {
  std::string msg;
  EXPECT_FALSE(values_are_range({0, 2}, &msg));
  EXPECT_EQ(msg, "counting violated: rank 1 holds value 2 (2 ops total)");
  EXPECT_FALSE(values_are_range({0, 0, 1}, &msg));
  EXPECT_EQ(msg, "counting violated: rank 1 holds value 0 (3 ops total)");
  EXPECT_FALSE(values_are_range({1, 2, 3}, &msg));
  EXPECT_EQ(msg, "counting violated: rank 0 holds value 1 (3 ops total)");
}

}  // namespace
}  // namespace cnet::lin
