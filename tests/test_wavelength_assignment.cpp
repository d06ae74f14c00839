// Static RWA colouring (§1.2 baseline, rwa::run_static_rwa): colour counts
// of classic shapes and the congestion bounds. Batching, timing and the
// differential check against the plain conflict-graph greedy live in
// test_static_wdm.
#include <gtest/gtest.h>

#include <memory>

#include "opto/graph/butterfly.hpp"
#include "opto/paths/butterfly_paths.hpp"
#include "opto/paths/lowerbound_structures.hpp"
#include "opto/paths/workloads.hpp"
#include "opto/rwa/schedule.hpp"

namespace opto {
namespace {

using rwa::run_static_rwa;

TEST(WavelengthAssignment, BundleNeedsWidthColors) {
  const auto collection = make_bundle_collection(1, 7, 5);
  for (const std::uint16_t bandwidth : {1, 3, 8}) {
    const auto result = run_static_rwa(collection, bandwidth, 2);
    EXPECT_TRUE(result.success);
    EXPECT_EQ(result.colors, 7u);  // a clique needs width colors
  }
}

TEST(WavelengthAssignment, DisjointPathsShareColorZero) {
  const auto collection = make_bundle_collection(5, 1, 4);  // 5 lone paths
  const auto result = run_static_rwa(collection, 1, 2);
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.colors, 1u);
  EXPECT_EQ(result.batches, 1u);
}

TEST(WavelengthAssignment, StaircaseIsTwoColorable) {
  // The staircase conflict graph is a path: chromatic number 2.
  const auto collection = make_staircase_collection(1, 6, 12, 4);
  const auto result = run_static_rwa(collection, 1, 2);
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.colors, 2u);
}

TEST(WavelengthAssignment, TriangleNeedsThree) {
  // The triangle conflict graph is K3.
  const auto collection = make_triangle_collection(1, 8, 4);
  const auto result = run_static_rwa(collection, 2, 2);
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.colors, 3u);
}

TEST(WavelengthAssignment, AtMostCongestionPlusOneColors) {
  auto topo = std::make_shared<ButterflyTopology>(make_butterfly(5));
  Rng rng(3);
  const auto collection = butterfly_random_q_function(topo, 3, rng);
  const auto result = run_static_rwa(collection, 2, 2);
  EXPECT_TRUE(result.success);
  EXPECT_LE(result.colors, collection.path_congestion() + 1);
}

TEST(WavelengthAssignment, EmptyCollection) {
  const auto collection = make_bundle_collection(0, 1, 1);
  const auto result = run_static_rwa(collection, 1, 1);
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.colors, 0u);
  EXPECT_EQ(result.batches, 0u);
}

}  // namespace
}  // namespace opto
