#include "topo/validate.h"

#include <sstream>
#include <utility>

#include "util/assert.h"

namespace cnet::topo {

bool has_step_property(const std::vector<std::uint64_t>& counts) {
  for (std::size_t i = 0; i < counts.size(); ++i) {
    for (std::size_t j = i + 1; j < counts.size(); ++j) {
      if (counts[i] < counts[j]) return false;
      if (counts[i] - counts[j] > 1) return false;
    }
  }
  return true;
}

std::vector<std::uint64_t> step_vector(std::uint64_t total, std::uint32_t width) {
  std::vector<std::uint64_t> out(width);
  for (std::uint32_t i = 0; i < width; ++i) out[i] = (total + width - 1 - i) / width;
  return out;
}

bool counts_for_vector(const Network& net, const std::vector<std::uint64_t>& input_tokens) {
  CNET_CHECK(input_tokens.size() == net.input_width());
  SequentialRouter router(net);
  // Round-robin injection; order is irrelevant for the quiescent counts (see
  // header comment) but round-robin exercises mixed interleavings anyway.
  std::vector<std::uint64_t> remaining = input_tokens;
  bool any = true;
  while (any) {
    any = false;
    for (std::uint32_t i = 0; i < remaining.size(); ++i) {
      if (remaining[i] > 0) {
        --remaining[i];
        router.route_token(i);
        any = true;
      }
    }
  }
  return has_step_property(router.output_counts());
}

namespace {

VerifyResult fail_result(std::vector<std::uint64_t> vec, std::uint64_t checked) {
  VerifyResult r;
  r.ok = false;
  r.vectors_checked = checked;
  r.failing_vector = std::move(vec);
  std::ostringstream msg;
  msg << "step property violated for input vector [";
  for (std::size_t i = 0; i < r.failing_vector.size(); ++i)
    msg << (i ? "," : "") << r.failing_vector[i];
  msg << "]";
  r.message = msg.str();
  return r;
}

}  // namespace

VerifyResult verify_counting_exhaustive(const Network& net, std::uint64_t max_per_input) {
  std::vector<std::uint64_t> vec(net.input_width(), 0);
  VerifyResult result;
  for (;;) {
    if (!counts_for_vector(net, vec)) return fail_result(vec, result.vectors_checked);
    ++result.vectors_checked;
    // Odometer increment over [0, max_per_input]^v.
    std::size_t pos = 0;
    while (pos < vec.size() && vec[pos] == max_per_input) vec[pos++] = 0;
    if (pos == vec.size()) break;
    ++vec[pos];
  }
  return result;
}

VerifyResult verify_counting_random(const Network& net, std::uint64_t max_per_input,
                                    std::uint64_t trials, Rng& rng) {
  VerifyResult result;
  std::vector<std::uint64_t> vec(net.input_width());
  for (std::uint64_t t = 0; t < trials; ++t) {
    for (auto& x : vec) x = rng.between(0, max_per_input);
    if (!counts_for_vector(net, vec)) return fail_result(vec, result.vectors_checked);
    ++result.vectors_checked;
  }
  return result;
}

}  // namespace cnet::topo
