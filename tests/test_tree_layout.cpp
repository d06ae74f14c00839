// Tree lightpath layouts (heavy-path decomposition + chain ladders).
#include <gtest/gtest.h>

#include "opto/paths/tree_layout.hpp"

namespace opto {
namespace {

/// A small fixed tree: root 0 with children 1 and 2; 1 has children 3
/// and 4; 2 has child 5; 3 has child 6; 5 has child 7.
std::vector<NodeId> fixture_parents() {
  return {0, 0, 0, 1, 1, 2, 3, 5};
}

TEST(TreeLayout, DepthsAndHeavyPaths) {
  const auto layout = make_tree_layout(fixture_parents(), 2);
  EXPECT_EQ(layout.root, 0u);
  EXPECT_EQ(layout.depth[0], 0u);
  EXPECT_EQ(layout.depth[6], 3u);
  EXPECT_EQ(layout.depth[7], 3u);
  // Every node lies on exactly one heavy path, positions consistent.
  for (NodeId v = 0; v < 8; ++v) {
    const NodeId head = layout.path_head[v];
    EXPECT_EQ(layout.path_nodes[head][layout.path_position[v]], v);
    EXPECT_EQ(layout.path_head[head], head);
  }
  // Heads start their paths at position 0.
  EXPECT_EQ(layout.path_position[layout.path_head[6]], 0u);
}

TEST(TreeLayout, LcaMatchesBruteForce) {
  const auto layout = make_tree_layout(fixture_parents(), 2);
  const auto brute = [&](NodeId a, NodeId b) {
    std::vector<char> seen(8, 0);
    for (NodeId w = a;; w = layout.parent[w]) {
      seen[w] = 1;
      if (w == layout.root) break;
    }
    for (NodeId w = b;; w = layout.parent[w]) {
      if (seen[w]) return w;
      if (w == layout.root) return layout.root;
    }
  };
  for (NodeId a = 0; a < 8; ++a)
    for (NodeId b = 0; b < 8; ++b)
      EXPECT_EQ(tree_lca(layout, a, b), brute(a, b))
          << "lca(" << a << "," << b << ")";
}

TEST(TreeLayout, RoutesChainAndReachDestination) {
  const auto layout = make_tree_layout(fixture_parents(), 2);
  for (NodeId src = 0; src < 8; ++src)
    for (NodeId dst = 0; dst < 8; ++dst) {
      const auto route = tree_layout_route(layout, src, dst);
      if (src == dst) {
        EXPECT_TRUE(route.empty());
        continue;
      }
      ASSERT_FALSE(route.empty()) << src << "->" << dst;
      EXPECT_EQ(route.front().source(), src);
      EXPECT_EQ(route.back().destination(), dst);
      for (std::size_t i = 1; i < route.size(); ++i)
        EXPECT_EQ(route[i].source(), route[i - 1].destination());
    }
}

TEST(TreeLayout, RandomTreesRouteEverywhere) {
  Rng rng(13);
  for (int trial = 0; trial < 5; ++trial) {
    const auto parents = random_tree_parents(40, rng);
    const auto layout = make_tree_layout(parents, 3);
    for (const auto& [src, dst] : {std::pair<NodeId, NodeId>{0, 39},
                                  {39, 0},
                                  {17, 23},
                                  {38, 39}}) {
      const auto route = tree_layout_route(layout, src, dst);
      if (src == dst) continue;
      ASSERT_FALSE(route.empty());
      EXPECT_EQ(route.front().source(), src);
      EXPECT_EQ(route.back().destination(), dst);
      for (std::size_t i = 1; i < route.size(); ++i)
        EXPECT_EQ(route[i].source(), route[i - 1].destination());
    }
  }
}

TEST(TreeLayout, RouteTunnelsComeFromTheLightpathSet) {
  Rng rng(17);
  const auto parents = random_tree_parents(30, rng);
  const auto layout = make_tree_layout(parents, 2);
  const auto lightpaths = tree_layout_lightpaths(layout);
  const auto contains = [&](PathView tunnel) {
    for (const PathView candidate : lightpaths.paths())
      if (candidate == tunnel) return true;
    return false;
  };
  for (const auto& [src, dst] :
       {std::pair<NodeId, NodeId>{5, 29}, {29, 5}, {0, 29}, {12, 3}}) {
    for (const Path& tunnel : tree_layout_route(layout, src, dst))
      EXPECT_TRUE(contains(tunnel)) << src << "->" << dst;
  }
}

TEST(TreeLayout, WavelengthCongestionLogarithmic) {
  // A pure chain degenerates to the chain layout: congestion = levels.
  std::vector<NodeId> chain(33);
  chain[0] = 0;
  for (NodeId v = 1; v < 33; ++v) chain[v] = v - 1;
  const auto layout = make_tree_layout(chain, 2);
  EXPECT_EQ(tree_layout_wavelength_congestion(layout), 6u);  // spans 1..32
}

TEST(TreeLayout, HopCongestionTradeoff) {
  Rng rng(21);
  const auto parents = random_tree_parents(60, rng);
  const auto fine = make_tree_layout(parents, 2);
  const auto coarse = make_tree_layout(parents, 16);
  EXPECT_GE(tree_layout_wavelength_congestion(fine),
            tree_layout_wavelength_congestion(coarse));
  EXPECT_LE(tree_layout_max_hops(fine), tree_layout_max_hops(coarse) + 1);
}

TEST(TreeLayout, MaxHopsPolylogOnRandomTrees) {
  Rng rng(23);
  const auto parents = random_tree_parents(64, rng);
  const auto layout = make_tree_layout(parents, 2);
  // ≤ (2·log₂ n crossings) × (hops per heavy path + light hop); very
  // generous polylog cap — a linear-scan layout would be ~n.
  EXPECT_LE(tree_layout_max_hops(layout), 40u);
}

TEST(TreeLayoutDeath, RejectsTwoRoots) {
  EXPECT_DEATH(make_tree_layout({0, 1, 0}, 2), "two roots");
}

TEST(TreeLayoutDeath, RejectsCycle) {
  EXPECT_DEATH(make_tree_layout({1, 2, 1}, 2), "root");
}

}  // namespace
}  // namespace opto
