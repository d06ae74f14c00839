#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>

#include "opto/graph/butterfly.hpp"
#include "opto/graph/hypercube.hpp"
#include "opto/graph/mesh.hpp"
#include "opto/paths/workloads.hpp"

namespace opto {
namespace {

TEST(Workloads, RandomFunctionInRange) {
  Rng rng(3);
  const auto f = random_function(100, rng);
  EXPECT_EQ(f.size(), 100u);
  for (NodeId v : f) EXPECT_LT(v, 100u);
}

TEST(Workloads, RandomPermutationIsBijective) {
  Rng rng(3);
  const auto perm = random_permutation(64, rng);
  std::set<NodeId> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), 64u);
}

TEST(Workloads, FunctionRequestsPairUp) {
  const std::vector<NodeId> f{2, 0, 1};
  const auto requests = function_requests(f);
  ASSERT_EQ(requests.size(), 3u);
  EXPECT_EQ(requests[0], (std::pair<NodeId, NodeId>{0, 2}));
  EXPECT_EQ(requests[2], (std::pair<NodeId, NodeId>{2, 1}));
}

TEST(Workloads, QFunctionCounts) {
  Rng rng(9);
  const auto requests = random_q_function_requests(10, 3, rng);
  EXPECT_EQ(requests.size(), 30u);
  for (std::uint32_t i = 0; i < 10; ++i)
    for (std::uint32_t c = 0; c < 3; ++c)
      EXPECT_EQ(requests[i * 3 + c].first, i);
}

TEST(Workloads, MeshRandomFunctionCollection) {
  auto topo = std::make_shared<MeshTopology>(make_mesh({4, 4}));
  Rng rng(17);
  const auto collection = mesh_random_function(topo, rng);
  EXPECT_EQ(collection.size(), 16u);
  EXPECT_LE(collection.dilation(), 6u);  // ≤ (4-1)+(4-1)
  for (PathId id = 0; id < collection.size(); ++id)
    EXPECT_EQ(collection.path(id).source(), id);
}

TEST(Workloads, ButterflyQFunctionCollection) {
  auto topo = std::make_shared<ButterflyTopology>(make_butterfly(3));
  Rng rng(23);
  const auto collection = butterfly_random_q_function(topo, 2, rng);
  EXPECT_EQ(collection.size(), 16u);  // 8 rows * q=2
  EXPECT_EQ(collection.dilation(), 3u);
  for (PathId id = 0; id < collection.size(); ++id) {
    EXPECT_EQ(collection.path(id).source(), topo->input(id / 2));
    EXPECT_EQ(topo->level_of(collection.path(id).destination()), 3u);
  }
}

TEST(Workloads, BfsRandomFunctionOnHypercube) {
  auto cube = std::make_shared<Graph>(make_hypercube(4));
  Rng rng(31);
  const auto collection = bfs_random_function(cube, rng);
  EXPECT_EQ(collection.size(), 16u);
  EXPECT_LE(collection.dilation(), 4u);
}

TEST(Workloads, BfsRandomPermutationCoversAllDestinations) {
  auto cube = std::make_shared<Graph>(make_hypercube(3));
  Rng rng(37);
  const auto collection = bfs_random_permutation(cube, rng);
  std::set<NodeId> destinations;
  for (const PathView p : collection.paths())
    destinations.insert(p.destination());
  EXPECT_EQ(destinations.size(), 8u);
}

TEST(Workloads, HotspotRequestsConcentrate) {
  Rng rng(41);
  const NodeId hotspot = 7;
  const auto requests = hotspot_requests(200, hotspot, 0.5, rng);
  ASSERT_EQ(requests.size(), 200u);
  std::size_t to_hotspot = 0;
  for (const auto& [src, dst] : requests) {
    EXPECT_LT(dst, 200u);
    to_hotspot += dst == hotspot ? 1 : 0;
  }
  // ~50% + the uniform background's 1/200 share.
  EXPECT_GT(to_hotspot, 70u);
  EXPECT_LT(to_hotspot, 140u);
}

TEST(Workloads, HotspotExtremes) {
  Rng rng(43);
  for (const auto& [src, dst] : hotspot_requests(30, 3, 1.0, rng))
    EXPECT_EQ(dst, 3u);
  std::size_t hits = 0;
  for (const auto& [src, dst] : hotspot_requests(30, 3, 0.0, rng))
    hits += dst == 3 ? 1 : 0;
  EXPECT_LT(hits, 10u);  // only the uniform background
}

TEST(Workloads, HotspotCongestionDwarfsUniform) {
  // The whole point of the pattern: C̃ ≈ fraction·n for any selector.
  auto topo = std::make_shared<MeshTopology>(make_mesh({6, 6}));
  Rng rng(47);
  const auto hotspot = mesh_collection(
      topo, hotspot_requests(topo->graph.node_count(), 0, 0.8, rng));
  const auto uniform = mesh_random_function(topo, rng);
  EXPECT_GT(hotspot.path_congestion(), 2 * uniform.path_congestion());
}

TEST(Workloads, DeterministicInSeed) {
  auto topo = std::make_shared<MeshTopology>(make_mesh({4, 4}));
  Rng rng_a(5), rng_b(5), rng_c(6);
  const auto a = mesh_random_function(topo, rng_a);
  const auto b = mesh_random_function(topo, rng_b);
  const auto c = mesh_random_function(topo, rng_c);
  bool ab_equal = true, ac_equal = true;
  for (PathId id = 0; id < a.size(); ++id) {
    ab_equal &= a.path(id) == b.path(id);
    ac_equal &= a.path(id) == c.path(id);
  }
  EXPECT_TRUE(ab_equal);
  EXPECT_FALSE(ac_equal);
}

}  // namespace
}  // namespace opto
