// Network topology representation.
//
// Following the paper's model (§1.1), the network is an undirected graph
// where every node is a router and every undirected edge carries two
// optical links, one per direction. We therefore store *directed* edges:
// the k-th undirected edge {u, v} added is the link u→v with the even id
// 2k and its reverse v→u with id 2k + 1, so reversing a link is a single
// XOR.
//
// A Graph is immutable. GraphBuilder adds nodes and edges, with the
// checks below, and build() freezes the result into one CSR adjacency:
// node u's out-links are links_[offsets_[u], offsets_[u + 1]), in
// ascending link id. Link ids and that order are a contract: route
// searches, tie-breaks and every recorded output read them.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "opto/util/assert.hpp"

namespace opto {

using NodeId = std::uint32_t;
using EdgeId = std::uint32_t;  ///< Directed-edge (optical link) id.

inline constexpr NodeId kInvalidNode = ~NodeId{0};
inline constexpr EdgeId kInvalidEdge = ~EdgeId{0};

struct MeshTopology;
namespace detail {
/// The mesh and torus builder (mesh.cpp). It writes its links straight
/// from row-major node ids, which keep them distinct by construction.
MeshTopology make_grid(std::vector<std::uint32_t> sides, bool wrap);
}  // namespace detail

class Graph {
 public:
  /// The empty graph.
  Graph() = default;

  NodeId node_count() const {
    return offsets_.empty() ? 0 : static_cast<NodeId>(offsets_.size() - 1);
  }
  /// Number of directed links (= 2 × undirected edges).
  EdgeId link_count() const { return static_cast<EdgeId>(targets_.size()); }
  EdgeId undirected_edge_count() const { return link_count() / 2; }

  NodeId source(EdgeId e) const { return targets_[e ^ 1]; }
  NodeId target(EdgeId e) const { return targets_[e]; }

  static constexpr EdgeId reverse(EdgeId e) { return e ^ 1; }

  /// Directed links leaving u, in ascending id.
  std::span<const EdgeId> out_links(NodeId u) const {
    return {links_.data() + offsets_[u], links_.data() + offsets_[u + 1]};
  }

  NodeId degree(NodeId u) const { return offsets_[u + 1] - offsets_[u]; }
  NodeId max_degree() const;

  /// Directed link u→v, or kInvalidEdge.
  EdgeId find_link(NodeId u, NodeId v) const {
    OPTO_ASSERT(u < node_count() && v < node_count());
    for (const EdgeId e : out_links(u))
      if (targets_[e] == v) return e;
    return kInvalidEdge;
  }

  bool has_edge(NodeId u, NodeId v) const {
    return find_link(u, v) != kInvalidEdge;
  }

  const std::string& name() const { return name_; }

 private:
  friend class GraphBuilder;
  friend MeshTopology detail::make_grid(std::vector<std::uint32_t>, bool);

  /// Freezes `targets` (targets[2k] = v and targets[2k + 1] = u for the
  /// k-th edge {u, v}) into the CSR rows of `node_count` nodes.
  Graph(std::string name, NodeId node_count, std::vector<NodeId> targets);

  std::string name_;
  // targets_[e] is the head of directed link e; paired links share targets_
  // slots (even id u→v stores v, odd id v→u stores u), so source(e) is just
  // target(e^1).
  std::vector<NodeId> targets_;
  std::vector<EdgeId> offsets_;  ///< node_count + 1 row bounds into links_
  std::vector<EdgeId> links_;
};

/// Collects nodes and undirected edges for one Graph. Adjacency is kept as
/// per-node link chains in two flat arrays, so has_edge costs the node's
/// degree and building allocates nothing per node.
class GraphBuilder {
 public:
  explicit GraphBuilder(NodeId node_count = 0, std::string name = {});

  NodeId add_node();

  /// Adds the undirected edge {u, v} as two directed links and returns the
  /// id of the u→v link; the v→u link is `returned_id ^ 1`. Self-loops and
  /// duplicate edges are rejected.
  EdgeId add_edge(NodeId u, NodeId v);

  bool has_edge(NodeId u, NodeId v) const;

  NodeId node_count() const { return static_cast<NodeId>(newest_.size()); }

  /// The frozen graph; the builder is consumed.
  Graph build() &&;

 private:
  std::string name_;
  std::vector<NodeId> targets_;  ///< as Graph's
  std::vector<EdgeId> newest_;   ///< per node: its last-added out-link
  std::vector<EdgeId> older_;    ///< per link: the source's previous one
};

/// The graph on `node_count` nodes with `edges` added in order (the
/// builder's checks apply).
Graph make_graph(NodeId node_count,
                 const std::vector<std::pair<NodeId, NodeId>>& edges,
                 std::string name = {});

}  // namespace opto
