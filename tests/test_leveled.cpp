// Leveled collections (§1.1): consistent unit-increment potentials.
#include <gtest/gtest.h>

#include <memory>

#include "opto/graph/butterfly.hpp"
#include "opto/paths/butterfly_paths.hpp"
#include "opto/paths/leveled.hpp"
#include "opto/paths/lowerbound_structures.hpp"

namespace opto {
namespace {

std::shared_ptr<Graph> chain(NodeId n) {
  GraphBuilder builder(n);
  for (NodeId u = 0; u + 1 < n; ++u) builder.add_edge(u, u + 1);
  return std::make_shared<Graph>(std::move(builder).build());
}

TEST(Leveled, SingleForwardPathIsLeveled) {
  const auto graph = chain(4);
  PathCollection collection(graph);
  collection.add(Path::from_nodes(*graph, std::vector<NodeId>{0, 1, 2, 3}));
  const auto levels = level_assignment(collection);
  ASSERT_TRUE(levels.has_value());
  EXPECT_EQ((*levels)[0], 0u);
  EXPECT_EQ((*levels)[3], 3u);
}

TEST(Leveled, OpposingPathsAreNotLeveled) {
  // Two paths traversing one edge in opposite directions force
  // level(1) = level(0)+1 and level(0) = level(1)+1.
  const auto graph = chain(3);
  PathCollection collection(graph);
  collection.add(Path::from_nodes(*graph, std::vector<NodeId>{0, 1, 2}));
  collection.add(Path::from_nodes(*graph, std::vector<NodeId>{2, 1, 0}));
  EXPECT_FALSE(is_leveled(collection));
}

TEST(Leveled, OffsetPathsShareLevels) {
  const auto graph = chain(5);
  PathCollection collection(graph);
  collection.add(Path::from_nodes(*graph, std::vector<NodeId>{0, 1, 2}));
  collection.add(Path::from_nodes(*graph, std::vector<NodeId>{2, 3, 4}));
  const auto levels = level_assignment(collection);
  ASSERT_TRUE(levels.has_value());
  for (NodeId u = 0; u < 5; ++u) EXPECT_EQ((*levels)[u], u);
}

TEST(Leveled, IndependentComponentsNormalizedToZero) {
  GraphBuilder builder(6);
  builder.add_edge(0, 1);
  builder.add_edge(1, 2);
  builder.add_edge(3, 4);
  builder.add_edge(4, 5);
  auto graph = std::make_shared<Graph>(std::move(builder).build());
  PathCollection collection(graph);
  collection.add(Path::from_nodes(*graph, std::vector<NodeId>{0, 1, 2}));
  collection.add(Path::from_nodes(*graph, std::vector<NodeId>{3, 4, 5}));
  const auto levels = level_assignment(collection);
  ASSERT_TRUE(levels.has_value());
  EXPECT_EQ((*levels)[0], 0u);
  EXPECT_EQ((*levels)[3], 0u);
  EXPECT_EQ((*levels)[5], 2u);
}

TEST(Leveled, OddCycleDirectionIsNotLeveled) {
  // Directed triangle a->b->c->a cannot carry a unit-increment potential.
  GraphBuilder builder(3);
  builder.add_edge(0, 1);
  builder.add_edge(1, 2);
  builder.add_edge(2, 0);
  auto graph = std::make_shared<Graph>(std::move(builder).build());
  PathCollection collection(graph);
  collection.add(Path::from_nodes(*graph, std::vector<NodeId>{0, 1, 2}));
  collection.add(Path::from_nodes(*graph, std::vector<NodeId>{2, 0}));
  EXPECT_FALSE(is_leveled(collection));
}

TEST(Leveled, ButterflyPathSystemIsLeveled) {
  auto topo = std::make_shared<ButterflyTopology>(make_butterfly(3));
  std::vector<std::pair<std::uint32_t, std::uint32_t>> requests;
  for (std::uint32_t r = 0; r < topo->rows(); ++r)
    requests.emplace_back(r, (r * 3 + 1) % topo->rows());
  const auto collection = butterfly_io_collection(topo, requests);
  const auto levels = level_assignment(collection);
  ASSERT_TRUE(levels.has_value());
  // The butterfly levels themselves are a valid leveling.
  for (std::uint32_t level = 0; level <= 3; ++level)
    for (std::uint32_t row = 0; row < topo->rows(); ++row) {
      const NodeId node = topo->node_at(level, row);
      if ((*levels)[node] != 0 || level == 0) {
        EXPECT_EQ((*levels)[node], level) << "node " << node;
      }
    }
}

TEST(Leveled, StaircaseIsLeveled) {
  const auto collection = make_staircase_collection(2, 4, 10, 4);
  EXPECT_TRUE(is_leveled(collection));
}

TEST(Leveled, TriangleIsNotLeveled) {
  const auto collection = make_triangle_collection(1, 8, 4);
  EXPECT_FALSE(is_leveled(collection));
}

TEST(Leveled, EmptyCollectionIsLeveled) {
  const auto graph = chain(2);
  PathCollection collection(graph);
  EXPECT_TRUE(is_leveled(collection));
}

}  // namespace
}  // namespace opto
