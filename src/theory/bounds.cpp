#include "theory/bounds.h"

#include <cmath>

#include "util/assert.h"

namespace cnet::theory {
namespace {

std::uint32_t log2_exact(std::uint32_t w) {
  CNET_CHECK(w != 0 && (w & (w - 1)) == 0);
  std::uint32_t lg = 0;
  while ((1u << lg) < w) ++lg;
  return lg;
}

}  // namespace

double finish_start_separation(std::uint32_t depth, double c1, double c2) {
  return static_cast<double>(depth) * c2 - 2.0 * static_cast<double>(depth) * c1;
}

double start_start_separation(std::uint32_t depth, double c1, double c2) {
  return 2.0 * static_cast<double>(depth) * (c2 - c1);
}

bool linearizable_guaranteed(double c1, double c2) { return c2 <= 2.0 * c1; }

bool violation_constructible(double c1, double c2) { return c2 > 2.0 * c1; }

double bitonic_wave_threshold(std::uint32_t width) {
  return (3.0 + static_cast<double>(log2_exact(width))) / 2.0;
}

std::uint32_t padded_depth(std::uint32_t depth, std::uint32_t k) {
  CNET_CHECK(k >= 2);
  return depth * (k - 1);
}

std::uint32_t bitonic_depth(std::uint32_t width) {
  const std::uint32_t lg = log2_exact(width);
  return lg * (lg + 1) / 2;
}

std::uint32_t periodic_depth(std::uint32_t width) {
  const std::uint32_t lg = log2_exact(width);
  return lg * lg;
}

std::uint32_t tree_depth(std::uint32_t width) { return log2_exact(width); }

double average_c2_over_c1(double tog, double wait) {
  CNET_CHECK(tog > 0.0);
  return (tog + wait) / tog;
}

}  // namespace cnet::theory
