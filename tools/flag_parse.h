// Strict numeric parsing for the command-line tools (cnet_cli and
// cnet_loadgen). A hostile value — a sign where none belongs, a non-digit,
// trailing junk, NaN, an infinity or an out-of-range number — is a usage
// error: the parser names what it wanted and echoes what it got on stderr,
// then exits 2. It never returns a wrapped, truncated or zero value.
#pragma once

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

namespace cnet::tools {

inline constexpr std::uint64_t kU32 = 0xffffffffu;
inline constexpr std::uint64_t kU64 = ~0ull;
inline constexpr double kUnbounded = std::numeric_limits<double>::infinity();

/// Parses `text` strictly as an integer in [min, max].
inline std::uint64_t parse_count(const std::string& what, const char* text, std::uint64_t max,
                                 std::uint64_t min = 0) {
  char* end = nullptr;
  errno = 0;
  const std::uint64_t n =
      std::isdigit(static_cast<unsigned char>(*text)) ? std::strtoull(text, &end, 10) : 0;
  if (end == nullptr || *end != '\0' || errno == ERANGE || n < min || n > max) {
    std::fprintf(stderr, "%s needs an integer in [%llu, %llu] (got '%s')\n", what.c_str(),
                 static_cast<unsigned long long>(min), static_cast<unsigned long long>(max),
                 text);
    std::exit(2);
  }
  return n;
}

/// parse_count's twin for real numbers: `text` must parse whole as a finite
/// number in [min, max], or in (min, max] when `above_min`. Pass
/// ±kUnbounded for a side without a bound.
inline double parse_finite(const std::string& what, const char* text, double min, double max,
                           bool above_min = false) {
  char* end = nullptr;
  const double x = std::strtod(text, &end);
  const bool in_range = (above_min ? x > min : x >= min) && x <= max;
  if (end == text || *end != '\0' || std::isspace(static_cast<unsigned char>(*text)) ||
      !std::isfinite(x) || !in_range) {
    std::fprintf(stderr, "%s needs a finite number in %c%g, %g%c (got '%s')\n", what.c_str(),
                 above_min || std::isinf(min) ? '(' : '[', min, max,
                 std::isinf(max) ? ')' : ']', text);
    std::exit(2);
  }
  return x;
}

}  // namespace cnet::tools
