#include "topo/validate.h"

#include <gtest/gtest.h>

#include "topo/builders.h"
#include "util/rng.h"

namespace cnet::topo {
namespace {

TEST(StepProperty, AcceptsStepVectors) {
  EXPECT_TRUE(has_step_property({}));
  EXPECT_TRUE(has_step_property({0}));
  EXPECT_TRUE(has_step_property({5, 5, 5, 5}));
  EXPECT_TRUE(has_step_property({3, 3, 2, 2}));
  EXPECT_TRUE(has_step_property({1, 0, 0, 0}));
}

TEST(StepProperty, RejectsNonStepVectors) {
  EXPECT_FALSE(has_step_property({0, 1}));        // increasing
  EXPECT_FALSE(has_step_property({3, 1}));        // gap of 2
  EXPECT_FALSE(has_step_property({2, 2, 1, 2}));  // dip in the middle
  EXPECT_FALSE(has_step_property({5, 4, 5}));
}

TEST(StepVector, MatchesDefinition) {
  EXPECT_EQ(step_vector(0, 4), (std::vector<std::uint64_t>{0, 0, 0, 0}));
  EXPECT_EQ(step_vector(1, 4), (std::vector<std::uint64_t>{1, 0, 0, 0}));
  EXPECT_EQ(step_vector(5, 4), (std::vector<std::uint64_t>{2, 1, 1, 1}));
  EXPECT_EQ(step_vector(8, 4), (std::vector<std::uint64_t>{2, 2, 2, 2}));
}

TEST(StepVector, AlwaysHasStepPropertyAndRightSum) {
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t total = rng.below(1000);
    const auto width = static_cast<std::uint32_t>(rng.between(1, 64));
    const auto v = step_vector(total, width);
    EXPECT_TRUE(has_step_property(v));
    std::uint64_t sum = 0;
    for (auto x : v) sum += x;
    EXPECT_EQ(sum, total);
  }
}

TEST(VerifyExhaustive, CountsVectors) {
  const Network net = make_balancer(2);
  const VerifyResult result = verify_counting_exhaustive(net, 3);
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.vectors_checked, 16u);  // (3+1)^2
  EXPECT_TRUE(result.failing_vector.empty());
}

TEST(VerifyExhaustive, FindsFailureInNonCountingNetwork) {
  // Two independent balancers wired straight through: satisfies balancing
  // locally but the outputs y0..y3 do not have the global step property.
  NetworkBuilder b(4, 4);
  const NodeId b0 = b.add_node(2, 2);
  const NodeId b1 = b.add_node(2, 2);
  b.attach_input(0, b0, 0);
  b.attach_input(1, b0, 1);
  b.attach_input(2, b1, 0);
  b.attach_input(3, b1, 1);
  for (std::uint32_t i = 0; i < 2; ++i) {
    b.attach_output(b0, i, i);
    b.attach_output(b1, i, 2 + i);
  }
  const Network net = b.build();
  const VerifyResult result = verify_counting_exhaustive(net, 3);
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.failing_vector.empty());
  EXPECT_NE(result.message.find("step property violated"), std::string::npos);
}

TEST(VerifyRandom, ReportsTrialCount) {
  const Network net = make_bitonic(4);
  Rng rng(9);
  const VerifyResult result = verify_counting_random(net, 10, 123, rng);
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.vectors_checked, 123u);
}

TEST(CountsForVector, AllTokensOnOneWire) {
  // A counting network must count even with maximally skewed input.
  const Network net = make_bitonic(8);
  for (std::uint32_t wire = 0; wire < 8; ++wire) {
    std::vector<std::uint64_t> input(8, 0);
    input[wire] = 50;
    EXPECT_TRUE(counts_for_vector(net, input)) << "wire " << wire;
  }
}

}  // namespace
}  // namespace cnet::topo
