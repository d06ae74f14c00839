// Definition 1.4 checker against known-symmetric and known-asymmetric
// topologies (the paper's applications rely on node symmetry for Thm 1.5).
#include <gtest/gtest.h>

#include "opto/graph/butterfly.hpp"
#include "opto/graph/complete.hpp"
#include "opto/graph/hypercube.hpp"
#include "opto/graph/mesh.hpp"
#include "opto/graph/node_symmetry.hpp"
#include "opto/graph/ring.hpp"

namespace opto {
namespace {

TEST(NodeSymmetry, RingIsSymmetric) {
  EXPECT_TRUE(is_node_symmetric(make_ring(9)));
}

TEST(NodeSymmetry, CompleteIsSymmetric) {
  EXPECT_TRUE(is_node_symmetric(make_complete(5)));
}

TEST(NodeSymmetry, HypercubeIsSymmetric) {
  EXPECT_TRUE(is_node_symmetric(make_hypercube(3)));
}

TEST(NodeSymmetry, TorusIsSymmetric) {
  EXPECT_TRUE(is_node_symmetric(make_torus({3, 3}).graph));
}

TEST(NodeSymmetry, MeshIsNotSymmetric) {
  // Corners vs interior nodes differ.
  EXPECT_FALSE(is_node_symmetric(make_mesh({3, 3}).graph));
}

TEST(NodeSymmetry, PlainButterflyIsNotSymmetric) {
  EXPECT_FALSE(is_node_symmetric(make_butterfly(2).graph));
}

TEST(NodeSymmetry, PathGraphIsNot) {
  EXPECT_FALSE(is_node_symmetric(make_mesh({4}).graph));
}

TEST(NodeSymmetry, AutomorphismMapsRingRotation) {
  const auto ring = make_ring(6);
  const auto mapping = find_automorphism(ring, 0, 2);
  ASSERT_TRUE(mapping.has_value());
  EXPECT_EQ((*mapping)[0], 2u);
  // The image must preserve adjacency.
  for (NodeId u = 0; u < 6; ++u)
    for (NodeId v = 0; v < 6; ++v)
      EXPECT_EQ(ring.has_edge(u, v),
                ring.has_edge((*mapping)[u], (*mapping)[v]));
}

TEST(NodeSymmetry, NoAutomorphismBetweenCornerAndCenter) {
  const auto mesh = make_mesh({3, 3});
  EXPECT_FALSE(find_automorphism(mesh.graph, 0, 4).has_value());
}

TEST(NodeSymmetry, SingletonTriviallySymmetric) {
  const Graph graph = GraphBuilder(1).build();
  EXPECT_TRUE(is_node_symmetric(graph));
}

}  // namespace
}  // namespace opto
