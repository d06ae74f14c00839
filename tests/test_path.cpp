#include <gtest/gtest.h>

#include <memory>

#include "opto/paths/path.hpp"

namespace opto {
namespace {

Graph chain(NodeId n) {
  Graph graph(n);
  for (NodeId u = 0; u + 1 < n; ++u) graph.add_edge(u, u + 1);
  return graph;
}

TEST(Path, FromNodes) {
  const auto graph = chain(4);
  const auto path =
      Path::from_nodes(graph, std::vector<NodeId>{0, 1, 2, 3});
  EXPECT_EQ(path.source(), 0u);
  EXPECT_EQ(path.destination(), 3u);
  EXPECT_EQ(path.length(), 3u);
  EXPECT_FALSE(path.empty());
  EXPECT_EQ(path.nodes(graph), (std::vector<NodeId>{0, 1, 2, 3}));
}

TEST(Path, SingleNodeIsEmptyPath) {
  const auto graph = chain(2);
  const auto path = Path::from_nodes(graph, std::vector<NodeId>{1});
  EXPECT_TRUE(path.empty());
  EXPECT_EQ(path.source(), 1u);
  EXPECT_EQ(path.destination(), 1u);
}

TEST(Path, BackwardTraversalUsesReverseLinks) {
  const auto graph = chain(3);
  const auto forward = Path::from_nodes(graph, std::vector<NodeId>{0, 1, 2});
  const auto backward = Path::from_nodes(graph, std::vector<NodeId>{2, 1, 0});
  EXPECT_EQ(backward.link(0), Graph::reverse(forward.link(1)));
  EXPECT_EQ(backward.link(1), Graph::reverse(forward.link(0)));
}

TEST(Path, Reversed) {
  const auto graph = chain(4);
  const auto path = Path::from_nodes(graph, std::vector<NodeId>{0, 1, 2, 3});
  const auto rev = path.reversed();
  EXPECT_EQ(rev.source(), 3u);
  EXPECT_EQ(rev.destination(), 0u);
  EXPECT_EQ(rev.nodes(graph), (std::vector<NodeId>{3, 2, 1, 0}));
  EXPECT_EQ(rev.reversed(), path);
}

TEST(Path, FromLinks) {
  const auto graph = chain(4);
  std::vector<EdgeId> links{graph.find_link(1, 2), graph.find_link(2, 3)};
  const auto path = Path::from_links(graph, links);
  EXPECT_EQ(path.source(), 1u);
  EXPECT_EQ(path.destination(), 3u);
  EXPECT_EQ(path.length(), 2u);
}

TEST(PathDeath, RejectsNonAdjacent) {
  const auto graph = chain(4);
  EXPECT_DEATH(Path::from_nodes(graph, std::vector<NodeId>{0, 2}),
               "not adjacent");
}

TEST(PathDeath, RejectsRevisit) {
  const auto graph = chain(4);
  EXPECT_DEATH(Path::from_nodes(graph, std::vector<NodeId>{0, 1, 0}),
               "simple");
}

TEST(Path, LongSimplePathAccepted) {
  // Long enough that the simplicity check sees far more nodes than any
  // small fixed buffer would hold.
  const auto graph = chain(200);
  std::vector<NodeId> nodes(200);
  for (NodeId u = 0; u < 200; ++u) nodes[u] = u;
  const auto path = Path::from_nodes(graph, nodes);
  EXPECT_EQ(path.length(), 199u);
  EXPECT_EQ(path.nodes(graph), nodes);
  const auto rebuilt = Path::from_links(
      graph, std::vector<EdgeId>(path.links().begin(), path.links().end()));
  EXPECT_EQ(rebuilt, path);
}

TEST(PathDeath, RejectsRevisitOfSourceAtFarEnd) {
  // Around a 70-node ring and back into the source: 71 nodes, every pair
  // adjacent, the only repeat at the two ends of the sequence.
  Graph ring(70);
  for (NodeId u = 0; u < 70; ++u) ring.add_edge(u, (u + 1) % 70);
  std::vector<NodeId> nodes;
  for (NodeId u = 0; u < 70; ++u) nodes.push_back(u);
  nodes.push_back(0);
  EXPECT_DEATH(Path::from_nodes(ring, nodes), "simple");
  nodes.pop_back();
  EXPECT_EQ(Path::from_nodes(ring, nodes).length(), 69u);
}

TEST(PathDeath, FromLinksRejectsRevisit) {
  // Consecutive links that close a 4-cycle: valid link chaining, but the
  // last link re-enters the source.
  Graph cycle(4);
  for (NodeId u = 0; u < 4; ++u) cycle.add_edge(u, (u + 1) % 4);
  std::vector<EdgeId> links;
  for (NodeId u = 0; u < 4; ++u) links.push_back(cycle.find_link(u, (u + 1) % 4));
  EXPECT_DEATH(Path::from_links(cycle, links), "simple");
  // A revisit in the middle: 0 -> 1 -> 2 -> 1 is consecutive as links.
  const auto graph = chain(4);
  std::vector<EdgeId> back{graph.find_link(0, 1), graph.find_link(1, 2),
                           graph.find_link(2, 1)};
  EXPECT_DEATH(Path::from_links(graph, back), "simple");
  links.pop_back();
  EXPECT_EQ(Path::from_links(cycle, links).length(), 3u);
}

TEST(PathDeath, RejectsNonConsecutiveLinks) {
  const auto graph = chain(4);
  std::vector<EdgeId> links{graph.find_link(0, 1), graph.find_link(2, 3)};
  EXPECT_DEATH(Path::from_links(graph, links), "consecutive");
}

}  // namespace
}  // namespace opto
