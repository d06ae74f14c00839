#include "opto/graph/graph_algo.hpp"

#include <algorithm>
#include <deque>

#include "opto/util/assert.hpp"

namespace opto {

std::vector<std::uint32_t> bfs_distances(const Graph& graph, NodeId source) {
  OPTO_ASSERT(source < graph.node_count());
  std::vector<std::uint32_t> dist(graph.node_count(), kUnreachable);
  std::deque<NodeId> queue;
  dist[source] = 0;
  queue.push_back(source);
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    for (EdgeId e : graph.out_links(u)) {
      const NodeId v = graph.target(e);
      if (dist[v] == kUnreachable) {
        dist[v] = dist[u] + 1;
        queue.push_back(v);
      }
    }
  }
  return dist;
}

std::vector<NodeId> bfs_path(const Graph& graph, NodeId source, NodeId target) {
  OPTO_ASSERT(target < graph.node_count());
  return tree_path(bfs_parents(graph, source), source, target);
}

std::vector<NodeId> bfs_parents(const Graph& graph, NodeId source) {
  OPTO_ASSERT(source < graph.node_count());
  // Scanning each node's neighbors in ascending id and never overwriting a
  // parent yields the lexicographically canonical shortest paths.
  std::vector<NodeId> parent(graph.node_count(), kInvalidNode);
  parent[source] = source;
  std::deque<NodeId> queue{source};
  std::vector<NodeId> neighbors;
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    neighbors.clear();
    for (EdgeId e : graph.out_links(u)) neighbors.push_back(graph.target(e));
    std::sort(neighbors.begin(), neighbors.end());
    for (NodeId v : neighbors) {
      if (parent[v] != kInvalidNode) continue;
      parent[v] = u;
      queue.push_back(v);
    }
  }
  return parent;
}

std::vector<NodeId> tree_path(const std::vector<NodeId>& parents,
                              NodeId source, NodeId target) {
  if (parents[target] == kInvalidNode) return {};
  std::vector<NodeId> path;
  for (NodeId w = target; w != source; w = parents[w]) path.push_back(w);
  path.push_back(source);
  std::reverse(path.begin(), path.end());
  return path;
}

bool is_connected(const Graph& graph) {
  if (graph.node_count() == 0) return true;
  const auto dist = bfs_distances(graph, 0);
  return std::none_of(dist.begin(), dist.end(),
                      [](std::uint32_t d) { return d == kUnreachable; });
}

std::uint32_t eccentricity(const Graph& graph, NodeId source) {
  const auto dist = bfs_distances(graph, source);
  std::uint32_t ecc = 0;
  for (std::uint32_t d : dist) {
    OPTO_ASSERT_MSG(d != kUnreachable, "eccentricity of disconnected graph");
    ecc = std::max(ecc, d);
  }
  return ecc;
}

std::uint32_t diameter(const Graph& graph) {
  std::uint32_t best = 0;
  for (NodeId u = 0; u < graph.node_count(); ++u)
    best = std::max(best, eccentricity(graph, u));
  return best;
}

}  // namespace opto
