#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "opto/graph/graph.hpp"

namespace opto {
namespace {

TEST(Graph, EmptyGraph) {
  const Graph graph;
  EXPECT_EQ(graph.node_count(), 0u);
  EXPECT_EQ(graph.link_count(), 0u);
  EXPECT_EQ(graph.max_degree(), 0u);
  const Graph built = GraphBuilder().build();
  EXPECT_EQ(built.node_count(), 0u);
  EXPECT_EQ(built.link_count(), 0u);
}

TEST(Graph, AddNodesAndEdges) {
  GraphBuilder builder(3, "tri");
  EXPECT_EQ(builder.node_count(), 3u);
  const EdgeId e01 = builder.add_edge(0, 1);
  const EdgeId e12 = builder.add_edge(1, 2);
  const Graph graph = std::move(builder).build();
  EXPECT_EQ(graph.node_count(), 3u);
  EXPECT_EQ(graph.link_count(), 4u);
  EXPECT_EQ(graph.undirected_edge_count(), 2u);
  EXPECT_EQ(graph.source(e01), 0u);
  EXPECT_EQ(graph.target(e01), 1u);
  EXPECT_EQ(graph.source(e12), 1u);
  EXPECT_EQ(graph.target(e12), 2u);
  EXPECT_EQ(graph.name(), "tri");
}

TEST(Graph, ReverseLinkPairing) {
  GraphBuilder builder(2);
  const EdgeId forward = builder.add_edge(0, 1);
  const Graph graph = std::move(builder).build();
  const EdgeId backward = Graph::reverse(forward);
  EXPECT_EQ(graph.source(backward), 1u);
  EXPECT_EQ(graph.target(backward), 0u);
  EXPECT_EQ(Graph::reverse(backward), forward);
}

TEST(Graph, OutLinksBothDirections) {
  const Graph graph = make_graph(3, {{0, 1}, {1, 2}});
  EXPECT_EQ(graph.out_links(0).size(), 1u);
  EXPECT_EQ(graph.out_links(1).size(), 2u);
  EXPECT_EQ(graph.out_links(2).size(), 1u);
  EXPECT_EQ(graph.degree(1), 2u);
  EXPECT_EQ(graph.max_degree(), 2u);
}

TEST(Graph, OutLinksAscendInLinkId) {
  // Node 2's links are 2→0 (id 1), 2→3 (id 2), 2→1 (id 7) and 2→4 (id
  // 8): its row lists them by id, whichever end of each edge it was.
  const Graph graph = make_graph(5, {{0, 2}, {2, 3}, {3, 4}, {1, 2}, {2, 4}});
  const auto row = graph.out_links(2);
  EXPECT_EQ(std::vector<EdgeId>(row.begin(), row.end()),
            (std::vector<EdgeId>{1, 2, 7, 8}));
  EXPECT_EQ(graph.target(7), 1u);
  EXPECT_EQ(graph.target(8), 4u);
  EXPECT_EQ(graph.degree(4), 2u);
  EXPECT_EQ(graph.max_degree(), 4u);
}

TEST(Graph, FindLinkDirectional) {
  GraphBuilder builder(3);
  const EdgeId e = builder.add_edge(0, 1);
  const Graph graph = std::move(builder).build();
  EXPECT_EQ(graph.find_link(0, 1), e);
  EXPECT_EQ(graph.find_link(1, 0), Graph::reverse(e));
  EXPECT_EQ(graph.find_link(0, 2), kInvalidEdge);
  EXPECT_TRUE(graph.has_edge(0, 1));
  EXPECT_FALSE(graph.has_edge(0, 2));
}

TEST(Graph, AddNodeGrows) {
  GraphBuilder builder(1);
  const NodeId added = builder.add_node();
  EXPECT_EQ(added, 1u);
  EXPECT_EQ(builder.node_count(), 2u);
  EXPECT_FALSE(builder.has_edge(0, added));
  builder.add_edge(0, added);
  EXPECT_TRUE(builder.has_edge(0, 1));
  EXPECT_TRUE(builder.has_edge(1, 0));
  const Graph graph = std::move(builder).build();
  EXPECT_EQ(graph.node_count(), 2u);
  EXPECT_TRUE(graph.has_edge(0, 1));
}

TEST(GraphDeath, RejectsSelfLoop) {
  GraphBuilder builder(2);
  EXPECT_DEATH(builder.add_edge(1, 1), "self-loop");
}

TEST(GraphDeath, RejectsDuplicateEdge) {
  GraphBuilder builder(2);
  builder.add_edge(0, 1);
  EXPECT_DEATH(builder.add_edge(1, 0), "duplicate");
}

}  // namespace
}  // namespace opto
