#include "util/cacheline.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <utility>

namespace cnet {
namespace {

struct alignas(kCacheLine) Line {
  ~Line() { ++destroyed; }
  std::atomic<std::uint64_t> value{7};
  static inline int destroyed = 0;
};

struct alignas(kCacheLine) Plain {
  std::uint64_t a;
  std::uint64_t b;
};

TEST(AlignedArray, ElementsSitOnTheirOwnCacheLines) {
  const AlignedArray<Line> lines(5);
  ASSERT_EQ(lines.size(), 5u);
  ASSERT_EQ(lines.end() - lines.begin(), 5);
  for (const Line& line : lines) {
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(&line) % kCacheLine, 0u);
    EXPECT_EQ(line.value.load(), 7u);
  }
}

TEST(AlignedArray, ValueInitializesTrivialElements) {
  const AlignedArray<Plain> plain(3);
  for (const Plain& p : plain) {
    EXPECT_EQ(p.a, 0u);
    EXPECT_EQ(p.b, 0u);
  }
}

TEST(AlignedArray, MovesKeepElementsInPlaceAndDestroyEachOnce) {
  Line::destroyed = 0;
  {
    AlignedArray<Line> a(3);
    Line* const first = &a[0];
    AlignedArray<Line> b(std::move(a));
    EXPECT_EQ(a.size(), 0u);  // a moved-from array is empty
    EXPECT_EQ(&b[0], first);
    AlignedArray<Line> c(2);
    c = std::move(b);  // c's two elements now belong to b
    EXPECT_EQ(c.size(), 3u);
    EXPECT_EQ(&c[0], first);
    EXPECT_EQ(Line::destroyed, 0);
  }
  EXPECT_EQ(Line::destroyed, 5);
}

}  // namespace
}  // namespace cnet
