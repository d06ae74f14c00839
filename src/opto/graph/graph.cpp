#include "opto/graph/graph.hpp"

#include <algorithm>

namespace opto {

Graph::Graph(std::string name, NodeId node_count, std::vector<NodeId> targets)
    : name_(std::move(name)),
      targets_(std::move(targets)),
      offsets_(std::size_t{node_count} + 1, 0),
      links_(targets_.size()) {
  // Counting sort by source: offsets_[u + 1] first counts u's links, then
  // holds where u's next link goes, and ends as the end of u's row.
  const auto links = static_cast<EdgeId>(targets_.size());
  for (EdgeId e = 0; e < links; ++e) ++offsets_[source(e) + 1];
  EdgeId start = 0;
  for (NodeId u = 0; u < node_count; ++u)
    start += std::exchange(offsets_[u + 1], start);
  for (EdgeId e = 0; e < links; ++e) links_[offsets_[source(e) + 1]++] = e;
}

NodeId Graph::max_degree() const {
  NodeId best = 0;
  for (NodeId u = 0; u < node_count(); ++u) best = std::max(best, degree(u));
  return best;
}

GraphBuilder::GraphBuilder(NodeId node_count, std::string name)
    : name_(std::move(name)), newest_(node_count, kInvalidEdge) {}

NodeId GraphBuilder::add_node() {
  newest_.push_back(kInvalidEdge);
  return node_count() - 1;
}

EdgeId GraphBuilder::add_edge(NodeId u, NodeId v) {
  OPTO_ASSERT(u < node_count() && v < node_count());
  OPTO_ASSERT_MSG(u != v, "self-loops are not valid optical links");
  OPTO_ASSERT_MSG(!has_edge(u, v), "duplicate undirected edge");
  const auto forward = static_cast<EdgeId>(targets_.size());
  targets_.push_back(v);  // forward (even id): u -> v
  targets_.push_back(u);  // reverse (odd id):  v -> u
  older_.push_back(std::exchange(newest_[u], forward));
  older_.push_back(std::exchange(newest_[v], forward ^ 1));
  return forward;
}

bool GraphBuilder::has_edge(NodeId u, NodeId v) const {
  OPTO_ASSERT(u < node_count() && v < node_count());
  for (EdgeId e = newest_[u]; e != kInvalidEdge; e = older_[e])
    if (targets_[e] == v) return true;
  return false;
}

Graph GraphBuilder::build() && {
  return Graph(std::move(name_), node_count(), std::move(targets_));
}

Graph make_graph(NodeId node_count,
                 const std::vector<std::pair<NodeId, NodeId>>& edges,
                 std::string name) {
  GraphBuilder builder(node_count, std::move(name));
  for (const auto& [u, v] : edges) builder.add_edge(u, v);
  return std::move(builder).build();
}

}  // namespace opto
