#include <gtest/gtest.h>

#include "opto/graph/graph_algo.hpp"
#include "opto/graph/mesh.hpp"
#include "opto/graph/ring.hpp"

namespace opto {
namespace {

TEST(GraphAlgo, BfsDistancesOnPath) {
  GraphBuilder builder(4);
  builder.add_edge(0, 1);
  builder.add_edge(1, 2);
  builder.add_edge(2, 3);
  Graph graph = std::move(builder).build();
  const auto dist = bfs_distances(graph, 0);
  EXPECT_EQ(dist, (std::vector<std::uint32_t>{0, 1, 2, 3}));
}

TEST(GraphAlgo, BfsDistancesDisconnected) {
  GraphBuilder builder(3);
  builder.add_edge(0, 1);
  Graph graph = std::move(builder).build();
  const auto dist = bfs_distances(graph, 0);
  EXPECT_EQ(dist[2], kUnreachable);
  EXPECT_FALSE(is_connected(graph));
}

TEST(GraphAlgo, BfsPathIsShortest) {
  const auto topo = make_mesh({3, 3});
  const auto path = bfs_path(topo.graph, 0, 8);
  ASSERT_EQ(path.size(), 5u);  // distance 4 => 5 nodes
  EXPECT_EQ(path.front(), 0u);
  EXPECT_EQ(path.back(), 8u);
  for (std::size_t i = 0; i + 1 < path.size(); ++i)
    EXPECT_TRUE(topo.graph.has_edge(path[i], path[i + 1]));
}

TEST(GraphAlgo, BfsPathCanonicalTieBreak) {
  // On a 4-cycle 0-1-3-2-0 both 0-1-3 and 0-2-3 are shortest; the
  // canonical rule picks the smaller intermediate node.
  GraphBuilder builder(4);
  builder.add_edge(0, 1);
  builder.add_edge(1, 3);
  builder.add_edge(0, 2);
  builder.add_edge(2, 3);
  Graph graph = std::move(builder).build();
  const auto path = bfs_path(graph, 0, 3);
  EXPECT_EQ(path, (std::vector<NodeId>{0, 1, 3}));
}

TEST(GraphAlgo, BfsPathSelf) {
  GraphBuilder builder(2);
  builder.add_edge(0, 1);
  Graph graph = std::move(builder).build();
  EXPECT_EQ(bfs_path(graph, 1, 1), (std::vector<NodeId>{1}));
}

TEST(GraphAlgo, BfsPathUnreachableEmpty) {
  GraphBuilder builder(3);
  builder.add_edge(0, 1);
  Graph graph = std::move(builder).build();
  EXPECT_TRUE(bfs_path(graph, 0, 2).empty());
}

TEST(GraphAlgo, EccentricityAndDiameter) {
  const auto graph = make_ring(8);
  EXPECT_EQ(eccentricity(graph, 0), 4u);
  EXPECT_EQ(diameter(graph), 4u);
}

}  // namespace
}  // namespace opto
