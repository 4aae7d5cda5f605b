#include "theory/bounds.h"

#include <gtest/gtest.h>

#include "topo/builders.h"

namespace cnet::theory {
namespace {

TEST(Bounds, FinishStartSeparation) {
  // Thm 3.6: h*c2 - 2*h*c1.
  EXPECT_DOUBLE_EQ(finish_start_separation(5, 1.0, 4.0), 10.0);
  EXPECT_DOUBLE_EQ(finish_start_separation(15, 1.0, 2.0), 0.0);
  EXPECT_LT(finish_start_separation(10, 1.0, 1.5), 0.0);  // always ordered
}

TEST(Bounds, StartStartSeparation) {
  // Lemma 3.7: 2*h*(c2 - c1).
  EXPECT_DOUBLE_EQ(start_start_separation(5, 1.0, 4.0), 30.0);
  EXPECT_DOUBLE_EQ(start_start_separation(15, 2.0, 2.0), 0.0);
}

TEST(Bounds, StartStartDominatesFinishStart) {
  // start-start = finish-start + 2*h*c1 - h*c1 ... sanity: for c2 >= c1 the
  // start-start bound is always at least the finish-start bound.
  for (std::uint32_t h : {1u, 5u, 15u}) {
    for (double c2 : {1.0, 2.0, 3.0, 10.0}) {
      EXPECT_GE(start_start_separation(h, 1.0, c2), finish_start_separation(h, 1.0, c2));
    }
  }
}

TEST(Bounds, LinearizabilityThreshold) {
  EXPECT_TRUE(linearizable_guaranteed(1.0, 1.0));
  EXPECT_TRUE(linearizable_guaranteed(1.0, 2.0));
  EXPECT_FALSE(linearizable_guaranteed(1.0, 2.0001));
  EXPECT_EQ(violation_constructible(1.0, 2.0), false);
  EXPECT_EQ(violation_constructible(1.0, 2.1), true);
}

TEST(Bounds, WaveThreshold) {
  // Thm 4.4: (3 + log w) / 2.
  EXPECT_DOUBLE_EQ(bitonic_wave_threshold(8), 3.0);
  EXPECT_DOUBLE_EQ(bitonic_wave_threshold(32), 4.0);
  EXPECT_DOUBLE_EQ(bitonic_wave_threshold(2), 2.0);
}

TEST(Bounds, PaddingFormulas) {
  EXPECT_EQ(topo::padding_prefix_length(15, 2), 0u);
  EXPECT_EQ(topo::padding_prefix_length(15, 4), 30u);
  EXPECT_EQ(padded_depth(15, 4), 45u);
  // depth identity: h + h*(k-2) == h*(k-1)
  for (std::uint32_t h : {1u, 5u, 15u, 25u}) {
    for (std::uint32_t k : {2u, 3u, 7u}) {
      EXPECT_EQ(h + topo::padding_prefix_length(h, k), padded_depth(h, k));
    }
  }
}

TEST(Bounds, DepthFormulasMatchBuilders) {
  for (std::uint32_t w : {2u, 4u, 8u, 16u, 32u, 64u}) {
    EXPECT_EQ(bitonic_depth(w), topo::make_bitonic(w).depth()) << w;
    EXPECT_EQ(tree_depth(w), topo::make_counting_tree(w).depth()) << w;
    if (w <= 32) {
      EXPECT_EQ(periodic_depth(w), topo::make_periodic(w).depth()) << w;
    }
  }
}

TEST(Bounds, AverageC2OverC1) {
  // The paper's Figure 7 metric (Tog + W) / Tog.
  EXPECT_DOUBLE_EQ(average_c2_over_c1(100.0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(average_c2_over_c1(100.0, 100.0), 2.0);
  EXPECT_DOUBLE_EQ(average_c2_over_c1(200.0, 100000.0), 501.0);
}

TEST(BoundsDeath, GuardsInvalidArguments) {
  EXPECT_DEATH(bitonic_wave_threshold(12), "");
  EXPECT_DEATH(average_c2_over_c1(0.0, 5.0), "");
}

}  // namespace
}  // namespace cnet::theory
