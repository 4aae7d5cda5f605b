// deploy::Builder validation: the whole point of declaring the process
// topology up front is that every wiring mistake — unplaced or unmapped
// objects, writer-count violations, overlapping rt thread slices,
// footprints that cannot fit — is one finish() diagnostic, not a crash
// after fork. Also covers materialize(): the validated graph must come up
// byte-for-byte placeable in real workspaces.
#include "deploy/topology.h"

#include <gtest/gtest.h>

#include <map>
#include <string>

namespace cnet::deploy {
namespace {

/// The smallest healthy deployment: one workspace, one shared object, two
/// tiles with disjoint slices.
Builder healthy() {
  Builder b;
  b.workspace("ws");
  b.object("plan", "ws", 64, 4096, /*multi_writer=*/true);
  b.tile("worker0", 0, 2).uses("plan", MapMode::kReadWrite);
  b.tile("worker1", 2, 2).uses("plan", MapMode::kReadWrite);
  return b;
}

TEST(DeployTopology, HealthyGraphValidates) {
  Builder b = healthy();
  Topology topo;
  std::string error;
  ASSERT_TRUE(b.finish(&topo, &error)) << error;
  ASSERT_EQ(topo.workspaces.size(), 1u);
  EXPECT_GE(topo.workspaces[0].data_footprint, 4096u);
  ASSERT_NE(topo.find_object("plan"), nullptr);
  ASSERT_NE(topo.find_tile("worker1"), nullptr);
  EXPECT_EQ(topo.find_tile("worker1")->thread_base, 2u);
  EXPECT_NE(topo.to_text().find("worker0"), std::string::npos);
}

TEST(DeployTopology, RejectsDuplicateNames) {
  Topology topo;
  std::string error;
  {
    Builder b;
    b.workspace("ws").workspace("ws");
    EXPECT_FALSE(b.finish(&topo, &error));
    EXPECT_NE(error.find("ws"), std::string::npos) << error;
  }
  {
    Builder b;
    b.workspace("ws");
    b.object("o", "ws", 64, 64).object("o", "ws", 64, 64);
    b.tile("t", 0, 1).uses("o", MapMode::kReadWrite);
    EXPECT_FALSE(b.finish(&topo, &error));
  }
  {
    Builder b;
    b.workspace("ws");
    b.object("o", "ws", 64, 64);
    b.tile("t", 0, 1).uses("o", MapMode::kReadWrite);
    b.tile("t", 1, 1);
    EXPECT_FALSE(b.finish(&topo, &error));
  }
}

TEST(DeployTopology, RejectsUnknownReferences) {
  Topology topo;
  std::string error;
  {
    Builder b;  // object names a workspace that was never declared
    b.object("o", "nowhere", 64, 64);
    b.tile("t", 0, 1).uses("o", MapMode::kReadWrite);
    EXPECT_FALSE(b.finish(&topo, &error));
    EXPECT_NE(error.find("nowhere"), std::string::npos) << error;
  }
  {
    Builder b;  // tile uses an object that was never placed
    b.workspace("ws");
    b.object("real", "ws", 64, 64);
    b.tile("t", 0, 1).uses("real", MapMode::kReadWrite).uses("ghost", MapMode::kReadOnly);
    EXPECT_FALSE(b.finish(&topo, &error));
    EXPECT_NE(error.find("ghost"), std::string::npos) << error;
  }
  {
    Builder b;  // uses() before any tile() has no tile to attach to
    b.workspace("ws");
    b.object("o", "ws", 64, 64);
    b.uses("o", MapMode::kReadWrite);
    EXPECT_FALSE(b.finish(&topo, &error));
  }
}

TEST(DeployTopology, RejectsAlignAndFootprintViolations) {
  Topology topo;
  std::string error;
  {
    Builder b;
    b.workspace("ws");
    b.object("o", "ws", 48, 64);  // not a power of two
    b.tile("t", 0, 1).uses("o", MapMode::kReadWrite);
    EXPECT_FALSE(b.finish(&topo, &error));
  }
  {
    Builder b;
    b.workspace("ws");
    b.object("o", "ws", shm::kMaxObjectAlign * 2, 64);
    b.tile("t", 0, 1).uses("o", MapMode::kReadWrite);
    EXPECT_FALSE(b.finish(&topo, &error));
  }
  {
    Builder b;
    b.workspace("ws");
    b.object("o", "ws", 64, 0);  // empty object
    b.tile("t", 0, 1).uses("o", MapMode::kReadWrite);
    EXPECT_FALSE(b.finish(&topo, &error));
  }
}

TEST(DeployTopology, EnforcesWriterDiscipline) {
  Topology topo;
  std::string error;
  {
    Builder b;  // two writers on a single-writer object
    b.workspace("ws");
    b.object("hist", "ws", 64, 256);
    b.tile("t0", 0, 1).uses("hist", MapMode::kReadWrite);
    b.tile("t1", 1, 1).uses("hist", MapMode::kReadWrite);
    EXPECT_FALSE(b.finish(&topo, &error));
    EXPECT_NE(error.find("hist"), std::string::npos) << error;
  }
  {
    Builder b;  // zero writers: nobody can ever initialize the object
    b.workspace("ws");
    b.object("hist", "ws", 64, 256);
    b.tile("t0", 0, 1).uses("hist", MapMode::kReadOnly);
    EXPECT_FALSE(b.finish(&topo, &error));
  }
  {
    Builder b;  // placed but mapped by no tile at all
    b.workspace("ws");
    b.object("orphan", "ws", 64, 256);
    b.object("used", "ws", 64, 64);
    b.tile("t0", 0, 1).uses("used", MapMode::kReadWrite);
    EXPECT_FALSE(b.finish(&topo, &error));
    EXPECT_NE(error.find("orphan"), std::string::npos) << error;
  }
  {
    Builder b;  // the same tile naming the same object twice is a typo
    b.workspace("ws");
    b.object("o", "ws", 64, 64);
    b.tile("t0", 0, 1).uses("o", MapMode::kReadWrite).uses("o", MapMode::kReadOnly);
    EXPECT_FALSE(b.finish(&topo, &error));
  }
}

TEST(DeployTopology, EnforcesDisjointThreadSlices) {
  Topology topo;
  std::string error;
  {
    Builder b;  // [0,2) and [1,3) overlap at id 1
    b.workspace("ws");
    b.object("o", "ws", 64, 64, true);
    b.tile("t0", 0, 2).uses("o", MapMode::kReadWrite);
    b.tile("t1", 1, 2).uses("o", MapMode::kReadWrite);
    EXPECT_FALSE(b.finish(&topo, &error));
    EXPECT_NE(error.find("t1"), std::string::npos) << error;
  }
  {
    Builder b;  // an empty slice can never issue
    b.workspace("ws");
    b.object("o", "ws", 64, 64, true);
    b.tile("t0", 0, 0).uses("o", MapMode::kReadWrite);
    EXPECT_FALSE(b.finish(&topo, &error));
  }
}

TEST(DeployTopology, FootprintAccountingMatchesWorkspaceAlloc) {
  // finish() computes each workspace's footprint with the same arithmetic
  // shm::Workspace::alloc uses, so materialize() must succeed with zero
  // slack — every object lands, including alignment padding.
  Builder b;
  b.workspace("ws");
  b.object("a", "ws", 64, 100, true);     // 100 bytes, cursor at 100
  b.object("b", "ws", 4096, 64, true);    // pads to 4096
  b.object("c", "ws", 64, 1000, true);    // follows directly
  b.tile("t0", 0, 1)
      .uses("a", MapMode::kReadWrite)
      .uses("b", MapMode::kReadWrite)
      .uses("c", MapMode::kReadWrite);
  Topology topo;
  std::string error;
  ASSERT_TRUE(b.finish(&topo, &error)) << error;
  EXPECT_EQ(topo.workspaces[0].data_footprint, 4096u + 64 + 1000);

  std::map<std::string, shm::Workspace> live;
  ASSERT_TRUE(materialize(topo, &live, &error)) << error;
  ASSERT_EQ(live.size(), 1u);
  shm::Workspace& ws = live.at("ws");
  EXPECT_EQ(ws.remaining(), 0u);  // the accounting was exact, not padded
  EXPECT_NE(ws.find("a"), nullptr);
  EXPECT_NE(ws.find("b"), nullptr);
  EXPECT_NE(ws.find("c"), nullptr);
}

TEST(DeployTopology, RejectsTableOverflowBeforeMaterialize) {
  Builder b;
  b.workspace("ws");
  b.tile("t0", 0, 1);
  for (std::uint32_t i = 0; i <= shm::kMaxObjects; ++i) {
    const std::string name = std::string("o").append(std::to_string(i));
    b.object(name, "ws", 8, 8, true);
    b.uses(name, MapMode::kReadWrite);
  }
  Topology topo;
  std::string error;
  EXPECT_FALSE(b.finish(&topo, &error));
}

}  // namespace
}  // namespace cnet::deploy
