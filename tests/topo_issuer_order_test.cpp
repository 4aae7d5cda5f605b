// Network::issuer_input: every builder's entry order is a permutation of its
// inputs, and the order keeps concurrent issuers apart by structure. On
// Bitonic[w], bit reversal puts issuers 0..T-1 into T disjoint
// Bitonic[w/T] blocks, so they first meet in the mergers; Periodic[w] keeps
// the identity, which Block[w]'s mirrored first layer already spreads.
#include "topo/network.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "topo/builders.h"

namespace cnet::topo {
namespace {

void expect_permutation(const Network& net) {
  SCOPED_TRACE(net.name());
  const std::vector<std::uint32_t>& order = net.issuer_order();
  ASSERT_EQ(order.size(), net.input_width());
  std::vector<std::uint32_t> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  for (std::uint32_t i = 0; i < sorted.size(); ++i) EXPECT_EQ(sorted[i], i);
  for (std::uint32_t i = 0; i < 3 * net.input_width(); ++i) {
    EXPECT_EQ(net.issuer_input(i), order[i % net.input_width()]) << "issuer " << i;
  }
}

/// Number of leading layers on which tokens entering at `inputs` can reach
/// pairwise-disjoint sets of balancers (a reachability count over
/// Network::layers()). Equals depth() when they never meet.
std::uint32_t disjoint_layers(const Network& net, const std::vector<std::uint32_t>& inputs) {
  // reach[i][node]: node is reachable from inputs[i].
  std::vector<std::vector<char>> reach(inputs.size(), std::vector<char>(net.node_count(), 0));
  for (std::size_t i = 0; i < inputs.size(); ++i) reach[i][net.inputs()[inputs[i]].node] = 1;
  for (std::uint32_t layer = 0; layer < net.depth(); ++layer) {
    for (const NodeId node : net.layers()[layer]) {
      std::uint32_t reached_by = 0;
      for (std::size_t i = 0; i < inputs.size(); ++i) reached_by += reach[i][node];
      if (reached_by > 1) return layer;
      for (std::size_t i = 0; i < inputs.size(); ++i) {
        if (reach[i][node] == 0) continue;
        for (const OutLink& out : net.node(node).out) {
          if (out.node != kNoNode) reach[i][out.node] = 1;
        }
      }
    }
  }
  return net.depth();
}

std::vector<std::uint32_t> issuer_inputs(const Network& net, std::uint32_t issuers) {
  std::vector<std::uint32_t> inputs(issuers);
  for (std::uint32_t t = 0; t < issuers; ++t) inputs[t] = net.issuer_input(t);
  return inputs;
}

std::uint32_t bitonic_depth(std::uint32_t width) {
  const std::uint32_t lg = log2_exact(width);
  return lg * (lg + 1) / 2;
}

TEST(IssuerOrder, EveryBuilderOrdersItsInputsAsAPermutation) {
  expect_permutation(make_balancer(2));
  expect_permutation(make_balancer(3));
  for (const std::uint32_t w : {2u, 4u, 8u, 16u, 32u, 64u}) {
    expect_permutation(make_bitonic(w));
    expect_permutation(make_periodic(w));
    expect_permutation(make_block(w));
    expect_permutation(make_merger(w));
    expect_permutation(make_counting_tree(w));
  }
  expect_permutation(make_kary_tree(3, 2));
  expect_permutation(make_padded(make_bitonic(16), 5));
  expect_permutation(make_serial(make_bitonic(8), make_periodic(8)));
  expect_permutation(make_parallel(make_bitonic(4), make_bitonic(4)));
}

TEST(IssuerOrder, BitonicEntersByBitReversal) {
  EXPECT_EQ(make_bitonic(2).issuer_order(), (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(make_bitonic(8).issuer_order(),
            (std::vector<std::uint32_t>{0, 4, 2, 6, 1, 5, 3, 7}));
  const Network net = make_bitonic(32);
  EXPECT_EQ(issuer_inputs(net, 4), (std::vector<std::uint32_t>{0, 16, 8, 24}));
  EXPECT_EQ(net.issuer_input(32 + 3), 24u);
}

TEST(IssuerOrder, BitonicIssuersStayApartThroughTheirSubBlocks) {
  for (const std::uint32_t w : {8u, 16u, 32u, 64u}) {
    const Network net = make_bitonic(w);
    for (const std::uint32_t issuers : {2u, 4u, 8u}) {
      if (issuers >= w) continue;
      SCOPED_TRACE("Bitonic[" + std::to_string(w) + "], " + std::to_string(issuers) +
                   " issuers");
      // Disjoint on every layer of Bitonic[w/T], sharing a balancer on the
      // next one: the first layer of the merger that joins two blocks.
      const std::uint32_t apart = bitonic_depth(w / issuers);
      ASSERT_LT(apart, net.depth());
      EXPECT_EQ(disjoint_layers(net, issuer_inputs(net, issuers)), apart);
    }
  }
  // Entering at p mod w instead, issuers 0..3 share a balancer on layer 1.
  EXPECT_EQ(disjoint_layers(make_bitonic(32), {0, 1, 2, 3}), 0u);
}

TEST(IssuerOrder, PeriodicKeepsTheIdentityAndItsMirroredSpread) {
  const Network net = make_periodic(32);
  std::vector<std::uint32_t> identity(32);
  std::iota(identity.begin(), identity.end(), 0u);
  EXPECT_EQ(net.issuer_order(), identity);
  // Block[32]'s first layer pairs input i with 31 - i: issuers 0..3 stay
  // on disjoint balancers for 3 layers and meet on the 4th.
  EXPECT_EQ(disjoint_layers(net, issuer_inputs(net, 4)), 3u);
}

TEST(IssuerOrder, CompositionsKeepTheFirstStagesOrder) {
  const Network base = make_bitonic(16);
  EXPECT_EQ(make_padded(base, 5).issuer_order(), base.issuer_order());
  EXPECT_EQ(make_padded(base, 0).issuer_order(), base.issuer_order());
  EXPECT_EQ(make_serial(base, make_periodic(16)).issuer_order(), base.issuer_order());
  const Network periodic = make_periodic(16);
  EXPECT_EQ(make_serial(periodic, base).issuer_order(), periodic.issuer_order());
}

TEST(IssuerOrder, TreeEntersAtItsOneInput) {
  const Network tree = make_counting_tree(8);
  EXPECT_EQ(tree.issuer_order(), (std::vector<std::uint32_t>{0}));
  for (std::uint32_t t = 0; t < 5; ++t) EXPECT_EQ(tree.issuer_input(t), 0u);
}

TEST(IssuerOrderDeath, BuildRejectsAnOrderThatIsNotAPermutation) {
  const auto balancer_with = [](std::vector<std::uint32_t> order) {
    NetworkBuilder b(2, 2);
    const NodeId n = b.add_node(2, 2);
    b.attach_input(0, n, 0);
    b.attach_input(1, n, 1);
    b.attach_output(n, 0, 0);
    b.attach_output(n, 1, 1);
    b.set_issuer_order(std::move(order));
    return b.build();
  };
  EXPECT_DEATH(balancer_with({0, 0}), "permutation");
  EXPECT_DEATH(balancer_with({0, 2}), "permutation");
  EXPECT_DEATH(balancer_with({1}), "every network input");
  EXPECT_EQ(balancer_with({1, 0}).issuer_input(0), 1u);
}

}  // namespace
}  // namespace cnet::topo
