// Chain lightpath layouts ([13,14,22]): structure, routing, and the
// hop-congestion trade-off shape.
#include <gtest/gtest.h>

#include "opto/paths/lightpath_layout.hpp"
#include "opto/paths/wavelength_assignment.hpp"

namespace opto {
namespace {

TEST(Layout, SpansArePowersOfBase) {
  const auto layout = make_chain_layout(65, 4);
  EXPECT_EQ(layout.spans, (std::vector<std::uint32_t>{1, 4, 16, 64}));
  EXPECT_EQ(layout.levels, 4u);
}

TEST(Layout, LightpathCoversItsSpan) {
  const auto layout = make_chain_layout(17, 2);
  const auto path = layout_lightpath(layout, 3, 8);  // span 8 from node 8
  EXPECT_EQ(path.source(), 8u);
  EXPECT_EQ(path.destination(), 16u);
  EXPECT_EQ(path.length(), 8u);
}

TEST(Layout, RouteReachesDestination) {
  const auto layout = make_chain_layout(100, 3);
  for (const auto& [src, dst] : {std::pair<NodeId, NodeId>{0, 99},
                                {99, 0},
                                {1, 98},
                                {37, 38},
                                {50, 23}}) {
    const auto route = layout_route(layout, src, dst);
    ASSERT_FALSE(route.empty());
    EXPECT_EQ(route.front().source(), src);
    EXPECT_EQ(route.back().destination(), dst);
    for (std::size_t i = 1; i < route.size(); ++i)
      EXPECT_EQ(route[i].source(), route[i - 1].destination());
  }
}

TEST(Layout, SelfRouteIsEmpty) {
  const auto layout = make_chain_layout(20, 2);
  EXPECT_TRUE(layout_route(layout, 7, 7).empty());
}

TEST(Layout, AlignedLongJumpIsOneHop) {
  const auto layout = make_chain_layout(65, 2);
  // 0 -> 64 is exactly the top-level tunnel.
  EXPECT_EQ(layout_route(layout, 0, 64).size(), 1u);
  EXPECT_EQ(layout_route(layout, 64, 0).size(), 1u);
}

TEST(Layout, WavelengthCongestionEqualsCoveringLevels) {
  // Every physical link is covered by one tunnel per level whose span
  // fits, per direction.
  const auto layout = make_chain_layout(65, 2);  // spans 1..64 all full
  EXPECT_EQ(layout_wavelength_congestion(layout), 7u);
  // And greedy coloring of the lightpaths needs exactly that many
  // wavelengths per direction.
  const auto assignment = assign_wavelengths(layout_lightpaths(layout),
                                             ColoringOrder::ByDegreeDesc);
  EXPECT_GE(assignment.colors_used, 7u);
}

TEST(Layout, HopCongestionTradeoff) {
  // [22]'s trade-off: fewer wavelengths (larger base → fewer levels)
  // costs more hops, and vice versa.
  const std::uint32_t n = 82;
  const auto fine = make_chain_layout(n, 2);
  const auto coarse = make_chain_layout(n, 9);
  EXPECT_GT(layout_wavelength_congestion(fine),
            layout_wavelength_congestion(coarse));
  EXPECT_LT(layout_max_hops(fine), layout_max_hops(coarse));
}

TEST(Layout, MaxHopsWithinTheoryBound) {
  for (const std::uint32_t base : {2u, 3u, 5u}) {
    const auto layout = make_chain_layout(121, base);
    // ≤ 2(b−1)·levels: up-phase and down-phase each use < b tunnels per
    // level.
    EXPECT_LE(layout_max_hops(layout), 2 * (base - 1) * layout.levels)
        << "base " << base;
  }
}

TEST(Layout, MeanHopsBelowMax) {
  const auto layout = make_chain_layout(50, 3);
  EXPECT_LE(layout_mean_hops(layout),
            static_cast<double>(layout_max_hops(layout)));
  EXPECT_GT(layout_mean_hops(layout), 1.0);
}

TEST(MeshLayoutTest, RouteReachesDestinationDimensionOrder) {
  const auto layout = make_mesh_layout(9, 2);
  for (const auto& [src, dst] : {std::pair<NodeId, NodeId>{0, 80},
                                 {80, 0},
                                 {4, 76},
                                 {40, 40},
                                 {8, 72}}) {
    const auto route = mesh_layout_route(layout, src, dst);
    if (src == dst) {
      EXPECT_TRUE(route.empty());
      continue;
    }
    ASSERT_FALSE(route.empty());
    EXPECT_EQ(route.front().source(), src);
    EXPECT_EQ(route.back().destination(), dst);
    for (std::size_t i = 1; i < route.size(); ++i)
      EXPECT_EQ(route[i].source(), route[i - 1].destination());
  }
}

TEST(MeshLayoutTest, PureRowOrColumnMoves) {
  const auto layout = make_mesh_layout(9, 2);
  // (0,0) -> (8,0): a single aligned column tunnel of span 8.
  EXPECT_EQ(mesh_layout_route(layout, layout.node_at(0, 0),
                              layout.node_at(8, 0))
                .size(),
            1u);
  // (3,0) -> (3,8): row move only.
  const auto row_route = mesh_layout_route(layout, layout.node_at(3, 0),
                                           layout.node_at(3, 8));
  for (const Path& tunnel : row_route)
    EXPECT_EQ(tunnel.source() / 9, 3u);  // stays on row 3
}

TEST(MeshLayoutTest, WavelengthCongestionIsPerDimensionLevels) {
  // Row and column tunnels use disjoint fibers; each fiber is covered by
  // one tunnel per level of its own dimension.
  const auto layout = make_mesh_layout(9, 2);  // spans 1,2,4,8 -> 4 levels
  EXPECT_EQ(mesh_layout_wavelength_congestion(layout), 4u);
}

TEST(MeshLayoutTest, MaxHopsAboutTwiceChain) {
  const auto mesh = make_mesh_layout(9, 2);
  const auto chain = make_chain_layout(9, 2);
  EXPECT_LE(mesh_layout_max_hops(mesh), 2 * layout_max_hops(chain));
  EXPECT_GE(mesh_layout_max_hops(mesh), layout_max_hops(chain));
}

TEST(MeshLayoutTest, TradeoffMirrorsChain) {
  const auto fine = make_mesh_layout(10, 2);
  const auto coarse = make_mesh_layout(10, 9);
  EXPECT_GT(mesh_layout_wavelength_congestion(fine),
            mesh_layout_wavelength_congestion(coarse));
  EXPECT_LT(mesh_layout_max_hops(fine), mesh_layout_max_hops(coarse));
}

TEST(RingLayoutTest, RoutesTakeTheShorterArc) {
  const auto layout = make_ring_layout(64, 2);
  // 0 -> 16 clockwise: exactly one span-16 tunnel.
  EXPECT_EQ(ring_layout_route(layout, 0, 16).size(), 1u);
  // 0 -> 63 counter-clockwise: one span-1 tunnel across the wrap.
  const auto wrap = ring_layout_route(layout, 0, 63);
  ASSERT_EQ(wrap.size(), 1u);
  EXPECT_EQ(wrap[0].source(), 0u);
  EXPECT_EQ(wrap[0].destination(), 63u);
}

TEST(RingLayoutTest, AllPairsChainCorrectly) {
  const auto layout = make_ring_layout(27, 3);
  for (NodeId src = 0; src < 27; src += 5)
    for (NodeId dst = 0; dst < 27; ++dst) {
      const auto route = ring_layout_route(layout, src, dst);
      if (src == dst) {
        EXPECT_TRUE(route.empty());
        continue;
      }
      ASSERT_FALSE(route.empty());
      EXPECT_EQ(route.front().source(), src);
      EXPECT_EQ(route.back().destination(), dst);
      for (std::size_t i = 1; i < route.size(); ++i)
        EXPECT_EQ(route[i].source(), route[i - 1].destination());
    }
}

TEST(RingLayoutTest, CongestionIsLevelsAndHopsBounded) {
  const auto layout = make_ring_layout(64, 2);
  EXPECT_EQ(layout.levels, 6u);  // spans 1..32
  EXPECT_EQ(ring_layout_wavelength_congestion(layout), 6u);
  // Shorter arc + greedy ladder: ≤ 2(b−1)·levels (align-up + fit).
  EXPECT_LE(ring_layout_max_hops(layout), 12u);
}

TEST(RingLayoutTest, TradeoffMirrorsChain) {
  const auto fine = make_ring_layout(64, 2);
  const auto coarse = make_ring_layout(64, 8);
  EXPECT_GT(ring_layout_wavelength_congestion(fine),
            ring_layout_wavelength_congestion(coarse));
  EXPECT_LT(ring_layout_max_hops(fine), ring_layout_max_hops(coarse));
}

TEST(RingLayoutTestDeath, RejectsNonPowerSizes) {
  EXPECT_DEATH(make_ring_layout(24, 2), "base");
}

TEST(MeshLayoutTest, LightpathsAreValidPaths) {
  const auto layout = make_mesh_layout(5, 2);
  const auto lightpaths = mesh_layout_lightpaths(layout);
  EXPECT_GT(lightpaths.size(), 0u);
  for (const PathView p : lightpaths.paths()) {
    EXPECT_GE(p.length(), 1u);
    EXPECT_LE(p.length(), 4u);  // max span = 4 at side 5
  }
}

}  // namespace
}  // namespace opto
