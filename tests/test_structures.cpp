// The lower-bound constructions (Figures 5 and 6): exact sharing geometry.
#include <gtest/gtest.h>

#include "opto/paths/leveled.hpp"
#include "opto/paths/lowerbound_structures.hpp"
#include "opto/paths/shortcut_free.hpp"
#include "opto/sim/simulator.hpp"

namespace opto {
namespace {

TEST(Structures, StaircaseStep) {
  // d = ⌊(L−1)/2⌋ + 1.
  EXPECT_EQ(StructureBuilder::staircase_step(1), 1u);
  EXPECT_EQ(StructureBuilder::staircase_step(2), 1u);
  EXPECT_EQ(StructureBuilder::staircase_step(3), 2u);
  EXPECT_EQ(StructureBuilder::staircase_step(4), 2u);
  EXPECT_EQ(StructureBuilder::staircase_step(7), 4u);
}

TEST(Structures, StaircaseSharing) {
  const std::uint32_t L = 4;  // d = 2
  const auto collection = make_staircase_collection(1, 3, 8, L);
  ASSERT_EQ(collection.size(), 3u);
  const auto per_path = collection.path_congestions();
  // Interior path shares an edge with both neighbors.
  EXPECT_EQ(per_path[0], 1u);
  EXPECT_EQ(per_path[1], 2u);
  EXPECT_EQ(per_path[2], 1u);

  // Path i's link at position d equals path i+1's link at position 0.
  const std::uint32_t d = StructureBuilder::staircase_step(L);
  EXPECT_EQ(collection.path(0).link(d), collection.path(1).link(0));
  EXPECT_EQ(collection.path(1).link(d), collection.path(2).link(0));
  // ... and only that one link is shared.
  std::uint32_t shared = 0;
  for (EdgeId a : collection.path(0).links())
    for (EdgeId b : collection.path(1).links())
      if (a == b) ++shared;
  EXPECT_EQ(shared, 1u);
}

TEST(Structures, StaircaseLengthsAndNodes) {
  const auto collection = make_staircase_collection(1, 4, 10, 6);  // d = 3
  for (const PathView p : collection.paths()) EXPECT_EQ(p.length(), 10u);
  // Node count: 4·11 positions minus 2 shared per adjacent pair.
  EXPECT_EQ(collection.graph().node_count(), 4u * 11u - 3u * 2u);
}

TEST(Structures, StaircaseSmallL) {
  // L = 2 gives d = 1: each interior node participates in two sharings.
  const auto collection = make_staircase_collection(1, 4, 6, 2);
  EXPECT_TRUE(is_leveled(collection));
  EXPECT_TRUE(is_shortcut_free(collection));
  EXPECT_EQ(collection.path(0).link(1), collection.path(1).link(0));
}

TEST(Structures, StaircaseBlockingChain) {
  // Lemma 2.8's mechanism: with equal delays and one wavelength, worm i+1
  // (launched d levels behind) occupies the shared edge when worm i's head
  // arrives, so every worm but the last dies.
  const std::uint32_t L = 4;
  const std::uint32_t k = 5;
  const auto collection = make_staircase_collection(1, k, 12, L);
  Simulator sim(collection, {});
  std::vector<LaunchSpec> specs;
  for (PathId id = 0; id < k; ++id) {
    LaunchSpec s;
    s.path = id;
    s.start_time = 0;
    s.wavelength = 0;
    s.length = L;
    specs.push_back(s);
  }
  const auto result = sim.run(specs);
  for (PathId id = 0; id + 1 < k; ++id) {
    EXPECT_EQ(result.worms[id].status, WormStatus::Killed) << "worm " << id;
    EXPECT_EQ(result.worms[id].blocked_by, id + 1);
  }
  EXPECT_TRUE(result.worms[k - 1].delivered_intact());
}

TEST(Structures, BundleIsIdenticalPaths) {
  const auto collection = make_bundle_collection(2, 5, 7);
  ASSERT_EQ(collection.size(), 10u);
  EXPECT_EQ(collection.path(0), collection.path(4));
  EXPECT_NE(collection.path(0), collection.path(5));  // second structure
  EXPECT_EQ(collection.path_congestion(), 4u);
  EXPECT_EQ(collection.edge_congestion(), 5u);
  EXPECT_EQ(collection.dilation(), 7u);
  EXPECT_TRUE(is_leveled(collection));
}

TEST(Structures, TriangleGeometry) {
  const std::uint32_t L = 6;  // m = 3
  const auto collection = make_triangle_collection(1, 9, L);
  ASSERT_EQ(collection.size(), 3u);
  const std::uint32_t m = StructureBuilder::triangle_offset(L);
  for (std::uint32_t j = 0; j < 3; ++j) {
    EXPECT_EQ(collection.path(j).link(m),
              collection.path((j + 1) % 3).link(0))
        << "cycle edge " << j;
    EXPECT_EQ(collection.path(j).length(), 9u);
  }
  EXPECT_EQ(collection.path_congestion(), 2u);
}

TEST(Structures, TriangleDeadlockAtEqualDelays) {
  // §3.2's blocking event: equal delays + one wavelength kill all three
  // under serve-first.
  for (std::uint32_t L : {2u, 3u, 4u, 7u}) {
    const auto collection = make_triangle_collection(
        1, StructureBuilder::triangle_offset(L) + 4, L);
    Simulator sim(collection, {});
    std::vector<LaunchSpec> specs;
    for (PathId id = 0; id < 3; ++id) {
      LaunchSpec s;
      s.path = id;
      s.start_time = 0;
      s.wavelength = 0;
      s.length = L;
      specs.push_back(s);
    }
    const auto result = sim.run(specs);
    EXPECT_EQ(result.metrics.killed, 3u) << "L=" << L;
  }
}

TEST(Structures, TriangleDelaySpreadBreaksDeadlock) {
  // With delays farther apart than the blocking window, worms miss each
  // other and all deliver.
  const std::uint32_t L = 4;
  const auto collection = make_triangle_collection(1, 10, L);
  Simulator sim(collection, {});
  std::vector<LaunchSpec> specs;
  for (PathId id = 0; id < 3; ++id) {
    LaunchSpec s;
    s.path = id;
    s.start_time = static_cast<SimTime>(id) * 3 * L;
    s.wavelength = 0;
    s.length = L;
    specs.push_back(s);
  }
  const auto result = sim.run(specs);
  EXPECT_EQ(result.metrics.delivered, 3u);
}

TEST(Structures, MixedBuilderCombinesStructures) {
  StructureBuilder builder;
  builder.add_staircase(3, 8, 4);
  builder.add_bundle(5, 6);
  builder.add_triangle(8, 4);
  EXPECT_EQ(builder.path_count(), 3u + 5u + 3u);
  const auto collection = std::move(builder).build();
  EXPECT_EQ(collection.size(), 11u);
  EXPECT_EQ(collection.dilation(), 8u);
  // Structures are disjoint: bundle paths share nothing with staircases.
  EXPECT_TRUE(is_shortcut_free(collection));
}

TEST(StructuresDeath, TriangleNeedsL2) {
  EXPECT_DEATH(make_triangle_collection(1, 8, 1), "L >= 2");
}

}  // namespace
}  // namespace opto
