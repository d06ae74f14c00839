// Topology builders: node/edge counts, coordinate mappings, degrees, and
// the CSR adjacency every builder freezes into.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "opto/graph/bcube.hpp"
#include "opto/graph/butterfly.hpp"
#include "opto/graph/complete.hpp"
#include "opto/graph/debruijn.hpp"
#include "opto/graph/expander.hpp"
#include "opto/graph/fattree.hpp"
#include "opto/graph/graph_algo.hpp"
#include "opto/graph/hypercube.hpp"
#include "opto/graph/mesh.hpp"
#include "opto/graph/random_regular.hpp"
#include "opto/graph/ring.hpp"
#include "opto/graph/shuffle_exchange.hpp"

namespace opto {
namespace {

TEST(Builders, Mesh2D) {
  const auto topo = make_mesh({3, 4});
  EXPECT_EQ(topo.graph.node_count(), 12u);
  // Edges: 2*4 vertical + 3*3 horizontal = 17.
  EXPECT_EQ(topo.graph.undirected_edge_count(), 17u);
  EXPECT_TRUE(is_connected(topo.graph));
  const std::uint32_t coords[] = {2, 3};
  EXPECT_EQ(topo.node_at(coords), 11u);
  EXPECT_EQ(topo.coords_of(11), (std::vector<std::uint32_t>{2, 3}));
  EXPECT_EQ(diameter(topo.graph), 2u + 3u);
}

TEST(Builders, Mesh1DIsPath) {
  const auto topo = make_mesh({5});
  EXPECT_EQ(topo.graph.node_count(), 5u);
  EXPECT_EQ(topo.graph.undirected_edge_count(), 4u);
  EXPECT_EQ(diameter(topo.graph), 4u);
}

TEST(Builders, Mesh3DCounts) {
  const auto topo = make_mesh({3, 3, 3});
  EXPECT_EQ(topo.graph.node_count(), 27u);
  EXPECT_EQ(topo.graph.undirected_edge_count(), 3u * (2 * 9));
  EXPECT_EQ(diameter(topo.graph), 6u);
}

TEST(Builders, Torus2D) {
  const auto topo = make_torus({4, 4});
  EXPECT_EQ(topo.graph.node_count(), 16u);
  EXPECT_EQ(topo.graph.undirected_edge_count(), 32u);  // 2 per node
  for (NodeId u = 0; u < 16; ++u) EXPECT_EQ(topo.graph.degree(u), 4u);
  EXPECT_EQ(diameter(topo.graph), 4u);  // 2 + 2
}

TEST(Builders, Hypercube) {
  const auto graph = make_hypercube(4);
  EXPECT_EQ(graph.node_count(), 16u);
  EXPECT_EQ(graph.undirected_edge_count(), 32u);  // n*d/2
  EXPECT_EQ(diameter(graph), 4u);
  EXPECT_EQ(hypercube_neighbor(0b0101, 1), 0b0111u);
}

TEST(Builders, Butterfly) {
  const auto topo = make_butterfly(3);
  EXPECT_EQ(topo.rows(), 8u);
  EXPECT_EQ(topo.levels(), 4u);
  EXPECT_EQ(topo.graph.node_count(), 32u);
  // Each of the 3 source levels contributes 2 edges per row.
  EXPECT_EQ(topo.graph.undirected_edge_count(), 3u * 8u * 2u);
  EXPECT_EQ(topo.level_of(topo.node_at(2, 5)), 2u);
  EXPECT_EQ(topo.row_of(topo.node_at(2, 5)), 5u);
  EXPECT_EQ(topo.input(3), topo.node_at(0, 3));
  EXPECT_EQ(topo.output(3), topo.node_at(3, 3));
  EXPECT_TRUE(is_connected(topo.graph));
}

TEST(Builders, WrapButterfly) {
  const auto topo = make_wrap_butterfly(3);
  EXPECT_EQ(topo.levels(), 3u);
  EXPECT_EQ(topo.graph.node_count(), 24u);
  EXPECT_EQ(topo.graph.undirected_edge_count(), 3u * 8u * 2u);
  // Node-symmetric variant: regular of degree 4.
  for (NodeId u = 0; u < topo.graph.node_count(); ++u)
    EXPECT_EQ(topo.graph.degree(u), 4u);
}

TEST(Builders, Ring) {
  const auto graph = make_ring(7);
  EXPECT_EQ(graph.node_count(), 7u);
  EXPECT_EQ(graph.undirected_edge_count(), 7u);
  EXPECT_EQ(diameter(graph), 3u);
}

TEST(Builders, DeBruijn) {
  const auto graph = make_debruijn(4);
  EXPECT_EQ(graph.node_count(), 16u);
  EXPECT_TRUE(is_connected(graph));
  // Diameter of the de Bruijn graph is at most dim.
  EXPECT_LE(diameter(graph), 4u);
}

TEST(Builders, ShuffleExchange) {
  const auto graph = make_shuffle_exchange(4);
  EXPECT_EQ(graph.node_count(), 16u);
  EXPECT_TRUE(is_connected(graph));
  EXPECT_EQ(rotate_left(0b1000, 4), 0b0001u);
  EXPECT_EQ(rotate_left(0b0011, 4), 0b0110u);
}

TEST(Builders, Complete) {
  const auto graph = make_complete(6);
  EXPECT_EQ(graph.undirected_edge_count(), 15u);
  EXPECT_EQ(diameter(graph), 1u);
}


/// Checks `graph`'s CSR rows against the link list alone: node u's row
/// must be the links whose source is u, in ascending id; degrees must
/// match; and find_link must agree with a scan over every link.
void expect_csr_matches_links(const Graph& graph) {
  const NodeId nodes = graph.node_count();
  std::vector<std::vector<EdgeId>> rows(nodes);
  for (EdgeId e = 0; e < graph.link_count(); ++e) {
    ASSERT_LT(graph.source(e), nodes) << "link " << e;
    ASSERT_LT(graph.target(e), nodes) << "link " << e;
    ASSERT_NE(graph.source(e), graph.target(e)) << "link " << e;
    rows[graph.source(e)].push_back(e);
  }
  NodeId max_degree = 0;
  for (NodeId u = 0; u < nodes; ++u) {
    const auto row = graph.out_links(u);
    ASSERT_EQ(std::vector<EdgeId>(row.begin(), row.end()), rows[u])
        << "node " << u;
    EXPECT_EQ(graph.degree(u), rows[u].size()) << "node " << u;
    max_degree = std::max(max_degree, graph.degree(u));
  }
  EXPECT_EQ(graph.max_degree(), max_degree);
  std::vector<EdgeId> scan(std::size_t{nodes} * nodes, kInvalidEdge);
  for (EdgeId e = 0; e < graph.link_count(); ++e) {
    EdgeId& slot = scan[std::size_t{graph.source(e)} * nodes + graph.target(e)];
    EXPECT_EQ(slot, kInvalidEdge) << "parallel link " << e;
    slot = e;
  }
  for (NodeId u = 0; u < nodes; ++u)
    for (NodeId v = 0; v < nodes; ++v)
      ASSERT_EQ(graph.find_link(u, v), scan[std::size_t{u} * nodes + v])
          << u << "→" << v;
}

TEST(Builders, CsrRowsMatchTheLinkListInEveryFamily) {
  std::vector<std::pair<std::string, Graph>> graphs;
  for (const std::uint32_t side : {1u, 3u, 6u}) {
    graphs.emplace_back("mesh", make_mesh({side, side + 1}).graph);
    graphs.emplace_back("mesh-3d", make_mesh({2, side, 3}).graph);
  }
  for (const std::uint32_t side : {3u, 5u}) {
    graphs.emplace_back("torus", make_torus({side, 4}).graph);
    graphs.emplace_back("torus-3d", make_torus({3, side, 3}).graph);
  }
  for (const std::uint32_t dim : {3u, 5u}) {
    graphs.emplace_back("butterfly", make_butterfly(dim).graph);
    graphs.emplace_back("wrap-butterfly", make_wrap_butterfly(dim).graph);
    graphs.emplace_back("hypercube", make_hypercube(dim));
    graphs.emplace_back("debruijn", make_debruijn(dim));
    graphs.emplace_back("shuffle-exchange", make_shuffle_exchange(dim));
  }
  for (const std::uint32_t n : {5u, 12u}) {
    graphs.emplace_back("ring", make_ring(n));
    graphs.emplace_back("complete", make_complete(n));
    graphs.emplace_back("circulant", make_circulant(n, {1, 2}));
    graphs.emplace_back("random-regular", make_random_regular(n * 2, 3, n));
  }
  for (const std::uint32_t m : {2u, 4u})
    graphs.emplace_back("margulis", make_margulis_expander(m));
  for (const std::uint32_t radix : {4u, 6u})
    graphs.emplace_back("fattree", make_fat_tree(radix).graph);
  for (const std::uint32_t ports : {2u, 3u})
    graphs.emplace_back("bcube", make_bcube(ports, 2).graph);
  for (const auto& [family, graph] : graphs) {
    SCOPED_TRACE(family + " " + graph.name());
    expect_csr_matches_links(graph);
    if (HasFatalFailure()) return;
  }
}

/// The mesh or torus as the generic builder makes it: each node in
/// row-major order links to its +1 neighbour in every dimension (the
/// torus wraps the last coordinate to 0).
Graph grid_by_builder(const std::vector<std::uint32_t>& sides, bool wrap) {
  NodeId total = 1;
  for (const std::uint32_t side : sides) total *= side;
  GraphBuilder builder(total);
  std::vector<std::uint32_t> coords(sides.size(), 0);
  for (NodeId node = 0; node < total; ++node) {
    NodeId stride = total;
    for (std::size_t d = 0; d < sides.size(); ++d) {
      stride /= sides[d];
      if (sides[d] == 1) continue;
      if (coords[d] + 1 < sides[d])
        builder.add_edge(node, node + stride);
      else if (wrap)
        builder.add_edge(node, node - (sides[d] - 1) * stride);
    }
    for (std::size_t d = sides.size(); d-- > 0;) {
      if (++coords[d] < sides[d]) break;
      coords[d] = 0;
    }
  }
  return std::move(builder).build();
}

TEST(Builders, MeshAndTorusLinkIdsFollowTheBuilderOrder) {
  // make_mesh and make_torus write their links without the builder; the
  // ids must be the ones the builder's add_edge order gives.
  const std::vector<std::pair<std::vector<std::uint32_t>, bool>> grids = {
      {{5}, false},       {{1, 4}, false},   {{4, 1}, false},
      {{3, 4}, false},    {{32, 32}, false}, {{2, 3, 4}, false},
      {{3}, true},        {{3, 5}, true},    {{4, 4}, true},
      {{3, 4, 5}, true}};
  for (const auto& [sides, wrap] : grids) {
    const Graph direct = (wrap ? make_torus(sides) : make_mesh(sides)).graph;
    const Graph built = grid_by_builder(sides, wrap);
    SCOPED_TRACE(direct.name());
    ASSERT_EQ(direct.node_count(), built.node_count());
    ASSERT_EQ(direct.link_count(), built.link_count());
    for (EdgeId e = 0; e < direct.link_count(); ++e)
      ASSERT_EQ(direct.target(e), built.target(e)) << "link " << e;
    for (NodeId u = 0; u < direct.node_count(); ++u) {
      const auto a = direct.out_links(u);
      const auto b = built.out_links(u);
      ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
          << "node " << u;
    }
  }
}

}  // namespace
}  // namespace opto
