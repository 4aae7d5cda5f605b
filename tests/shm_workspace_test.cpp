// shm::Workspace edge cases: allocation discipline (alignment, footprint
// exhaustion, exact sizing by align_up, name rules, table capacity),
// re-attach after a simulated crash, and rejection of segments that are
// not (or no longer) valid workspaces — magic/version mismatch, truncation,
// a bump cursor past the data region.
#include "shm/workspace.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <string>

namespace cnet::shm {
namespace {

TEST(ShmWorkspace, CreateAllocFindRoundTrip) {
  Workspace ws;
  std::string error;
  ASSERT_TRUE(Workspace::create("roundtrip", 64 * 1024, &ws, &error)) << error;
  EXPECT_TRUE(ws.valid());
  EXPECT_STREQ(ws.name(), "roundtrip");
  EXPECT_EQ(ws.data_footprint(), 64u * 1024);
  EXPECT_EQ(ws.used(), 0u);
  EXPECT_EQ(ws.object_count(), 0u);

  void* a = ws.alloc("obj.a", 64, 1000, &error);
  ASSERT_NE(a, nullptr) << error;
  void* b = ws.alloc("obj.b", 4096, 100, &error);
  ASSERT_NE(b, nullptr) << error;
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % 4096, 0u);
  EXPECT_EQ(ws.object_count(), 2u);

  std::uint64_t footprint = 0;
  EXPECT_EQ(ws.find("obj.a", &footprint), a);
  EXPECT_EQ(footprint, 1000u);
  EXPECT_EQ(ws.find("obj.b"), b);
  EXPECT_EQ(ws.find("obj.missing"), nullptr);

  const LayoutEntry* entry = ws.entry(1);
  ASSERT_NE(entry, nullptr);
  EXPECT_STREQ(entry->name, "obj.b");
  EXPECT_EQ(entry->footprint, 100u);
  EXPECT_EQ(entry->align, 4096u);
}

TEST(ShmWorkspace, AllocRejectsBadAlignmentAndNames) {
  Workspace ws;
  std::string error;
  ASSERT_TRUE(Workspace::create("discipline", 4096, &ws, &error)) << error;

  EXPECT_EQ(ws.alloc("x", 3, 64, &error), nullptr);  // not a power of two
  EXPECT_NE(error.find("align"), std::string::npos) << error;
  EXPECT_EQ(ws.alloc("x", 8192, 64, &error), nullptr);  // beyond kMaxObjectAlign
  EXPECT_EQ(ws.alloc("x", 64, 0, &error), nullptr);     // empty objects are bugs
  EXPECT_EQ(ws.alloc("", 64, 64, &error), nullptr);
  EXPECT_EQ(ws.alloc("bad name", 64, 64, &error), nullptr);  // space not in charset
  EXPECT_EQ(ws.alloc(std::string(kMaxNameLen + 1, 'a'), 64, 64, &error), nullptr);
  EXPECT_EQ(ws.object_count(), 0u);  // every rejection left the table untouched
}

TEST(ShmWorkspace, AllocRejectsDuplicateNames) {
  Workspace ws;
  std::string error;
  ASSERT_TRUE(Workspace::create("dups", 4096, &ws, &error)) << error;
  ASSERT_NE(ws.alloc("twice", 64, 64, &error), nullptr) << error;
  EXPECT_EQ(ws.alloc("twice", 64, 64, &error), nullptr);
  EXPECT_NE(error.find("twice"), std::string::npos) << error;
  EXPECT_EQ(ws.object_count(), 1u);
}

TEST(ShmWorkspace, FootprintExhaustionIsDiagnosed) {
  Workspace ws;
  std::string error;
  ASSERT_TRUE(Workspace::create("tight", 1024, &ws, &error)) << error;
  ASSERT_NE(ws.alloc("fits", 64, 900, &error), nullptr) << error;
  // 124 bytes remain; an aligned 200-byte request cannot fit.
  EXPECT_EQ(ws.alloc("overflow", 64, 200, &error), nullptr);
  EXPECT_NE(error.find("overflow"), std::string::npos) << error;
  EXPECT_EQ(ws.object_count(), 1u);
  // The survivor is still resolvable and the cursor did not advance.
  EXPECT_NE(ws.find("fits"), nullptr);
  const std::uint64_t used = ws.used();
  EXPECT_EQ(ws.alloc("overflow2", 64, 200, &error), nullptr);
  EXPECT_EQ(ws.used(), used);
}

TEST(ShmWorkspace, AlignUpSumMatchesAllocExactly) {
  // A caller sizes a workspace by summing align_up(size, align) +
  // footprint over its objects, in alloc order (the deploy supervisor
  // does). That must be exactly what alloc() consumes — every object
  // lands, alignment padding included, with zero slack left.
  struct Obj {
    const char* name;
    std::uint64_t align;
    std::uint64_t footprint;
  };
  const Obj objects[] = {{"a", 64, 100}, {"b", 4096, 64}, {"c", 64, 1000}};
  std::uint64_t size = 0;
  for (const Obj& o : objects) size = align_up(size, o.align) + o.footprint;
  EXPECT_EQ(size, 4096u + 64 + 1000);  // a at 0, b padded to 4096, c right after

  Workspace ws;
  std::string error;
  ASSERT_TRUE(Workspace::create("exact", size, &ws, &error)) << error;
  for (const Obj& o : objects) {
    ASSERT_NE(ws.alloc(o.name, o.align, o.footprint, &error), nullptr) << error;
  }
  EXPECT_EQ(ws.remaining(), 0u);  // the accounting was exact, not padded
}

TEST(ShmWorkspace, LayoutTableCapacityIsEnforced) {
  Workspace ws;
  std::string error;
  ASSERT_TRUE(Workspace::create("table", 64 * 1024, &ws, &error)) << error;
  for (std::uint32_t i = 0; i < kMaxObjects; ++i) {
    ASSERT_NE(ws.alloc("obj" + std::to_string(i), 8, 8, &error), nullptr) << error;
  }
  EXPECT_EQ(ws.alloc("one-too-many", 8, 8, &error), nullptr);
  EXPECT_EQ(ws.object_count(), kMaxObjects);
}

TEST(ShmWorkspace, ReattachAfterSimulatedCrashSeesSameObjects) {
  // The crash model: the builder process laid out the workspace and died;
  // the only thing that survives is the fd (held by the supervisor) and the
  // segment behind it. A restarted process attaches the fd and must resolve
  // every object by name to the same bytes.
  Workspace builder;
  std::string error;
  ASSERT_TRUE(Workspace::create("crashy", 8192, &builder, &error)) << error;
  auto* counter = static_cast<std::uint64_t*>(builder.alloc("counter", 64, 64, &error));
  ASSERT_NE(counter, nullptr) << error;
  *counter = 0xfeedface;

  const int kept_fd = dup(builder.fd());
  ASSERT_GE(kept_fd, 0);
  {
    Workspace wreck = std::move(builder);  // "crash": the builder's mapping dies
  }

  Workspace revived;
  ASSERT_TRUE(Workspace::attach(kept_fd, &revived, &error)) << error;
  close(kept_fd);  // attach dup'd it; the workspace owns its own copy
  EXPECT_STREQ(revived.name(), "crashy");
  EXPECT_EQ(revived.object_count(), 1u);
  auto* again = static_cast<std::uint64_t*>(revived.find("counter"));
  ASSERT_NE(again, nullptr);
  EXPECT_EQ(*again, 0xfeedfaceu);
}

TEST(ShmWorkspace, AttachRejectsForeignMagicAndVersion) {
  Workspace ws;
  std::string error;
  ASSERT_TRUE(Workspace::create("victim", 4096, &ws, &error)) << error;

  // Corrupt the magic through the fd: attach must refuse the segment.
  const std::uint64_t junk = 0x1122334455667788ull;
  ASSERT_EQ(pwrite(ws.fd(), &junk, sizeof junk, 0), static_cast<ssize_t>(sizeof junk));
  Workspace reject;
  EXPECT_FALSE(Workspace::attach(ws.fd(), &reject, &error));
  EXPECT_NE(error.find("magic"), std::string::npos) << error;
  EXPECT_FALSE(reject.valid());

  // Restore the magic but break the version: also refused.
  ASSERT_EQ(pwrite(ws.fd(), &kWorkspaceMagic, sizeof kWorkspaceMagic, 0),
            static_cast<ssize_t>(sizeof kWorkspaceMagic));
  const std::uint32_t bad_version = kWorkspaceVersion + 9;
  ASSERT_EQ(pwrite(ws.fd(), &bad_version, sizeof bad_version, 8),
            static_cast<ssize_t>(sizeof bad_version));
  EXPECT_FALSE(Workspace::attach(ws.fd(), &reject, &error));
  EXPECT_NE(error.find("version"), std::string::npos) << error;
}

TEST(ShmWorkspace, AttachRejectsTruncatedSegment) {
  Workspace ws;
  std::string error;
  ASSERT_TRUE(Workspace::create("short", 64 * 1024, &ws, &error)) << error;
  // The header promises 64 KiB of data; shrink the file underneath it.
  ASSERT_EQ(ftruncate(ws.fd(), 4096), 0);
  Workspace reject;
  EXPECT_FALSE(Workspace::attach(ws.fd(), &reject, &error));
  EXPECT_FALSE(reject.valid());
}

TEST(ShmWorkspace, AttachRejectsBumpCursorPastDataRegion) {
  // A crash mid-alloc (or a scribbled header) can leave the bump cursor
  // claiming more bytes than the data region holds; an attacher that
  // trusted it would hand out memory outside the mapping on the next
  // alloc. attach() must refuse the segment outright.
  Workspace ws;
  std::string error;
  ASSERT_TRUE(Workspace::create("corrupt", 4096, &ws, &error)) << error;
  ASSERT_NE(ws.alloc("cell", 64, 64, &error), nullptr) << error;

  // Header layout: magic(8) version(4) object_count(4) data_footprint(8),
  // then the 8-byte bump cursor at offset 24.
  const std::uint64_t huge = 1ull << 40;
  ASSERT_EQ(pwrite(ws.fd(), &huge, sizeof(huge), 24), static_cast<ssize_t>(sizeof(huge)));

  Workspace attacked;
  EXPECT_FALSE(Workspace::attach(ws.fd(), &attacked, &error));
  EXPECT_NE(error.find("bump cursor"), std::string::npos) << error;
  EXPECT_NE(error.find("exceeds data_footprint"), std::string::npos) << error;
  EXPECT_FALSE(attacked.valid());
}

}  // namespace
}  // namespace cnet::shm
