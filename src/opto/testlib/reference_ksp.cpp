#include "opto/testlib/reference_ksp.hpp"

#include <algorithm>
#include <set>

#include "opto/graph/graph_algo.hpp"
#include "opto/util/assert.hpp"

namespace opto::testlib {
namespace {

struct RouteLess {
  bool operator()(const std::vector<NodeId>& a,
                  const std::vector<NodeId>& b) const {
    if (a.size() != b.size()) return a.size() < b.size();
    return a < b;
  }
};

/// The lexicographically smallest shortest route source → destination
/// that avoids the banned nodes and banned directed links, or an empty
/// route when none exists: a full reverse BFS from the destination under
/// the bans, then a greedy walk to the smallest neighbour one hop nearer.
std::vector<NodeId> lex_min_shortest(const Graph& graph, NodeId source,
                                     NodeId destination,
                                     const std::vector<char>& banned_node,
                                     const std::vector<char>& banned_link) {
  if (banned_node[source] || banned_node[destination]) return {};
  std::vector<std::uint32_t> dist(graph.node_count(), kUnreachable);
  std::vector<NodeId> queue{destination};
  dist[destination] = 0;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId x = queue[head];
    for (EdgeId e : graph.out_links(x)) {
      const NodeId y = graph.target(e);
      if (banned_node[y] || banned_link[Graph::reverse(e)]) continue;
      if (dist[y] != kUnreachable) continue;
      dist[y] = dist[x] + 1;
      queue.push_back(y);
    }
  }
  if (dist[source] == kUnreachable) return {};

  std::vector<NodeId> route{source};
  for (NodeId u = source; u != destination;) {
    NodeId best = kInvalidNode;
    for (EdgeId e : graph.out_links(u)) {
      const NodeId v = graph.target(e);
      if (banned_node[v] || banned_link[e]) continue;
      if (dist[v] != dist[u] - 1) continue;
      best = std::min(best, v);
    }
    OPTO_ASSERT(best != kInvalidNode);
    route.push_back(best);
    u = best;
  }
  return route;
}

}  // namespace

std::vector<std::vector<NodeId>> reference_k_shortest_routes(
    const Graph& graph, NodeId source, NodeId destination, std::uint32_t k) {
  OPTO_ASSERT(source < graph.node_count() &&
              destination < graph.node_count());
  std::vector<std::vector<NodeId>> accepted;
  if (k == 0) return accepted;
  std::vector<char> banned_node(graph.node_count(), 0);
  std::vector<char> banned_link(graph.link_count(), 0);
  std::vector<NodeId> first =
      lex_min_shortest(graph, source, destination, banned_node, banned_link);
  if (first.empty()) return accepted;
  accepted.push_back(std::move(first));

  std::set<std::vector<NodeId>, RouteLess> candidates;
  while (accepted.size() < k) {
    const std::vector<NodeId> prev = accepted.back();
    for (std::size_t i = 0; i + 1 < prev.size(); ++i) {
      // Keep the root prev[0..i]; ban the next link of every accepted
      // route with that root and the root's other nodes.
      std::fill(banned_node.begin(), banned_node.end(), 0);
      std::fill(banned_link.begin(), banned_link.end(), 0);
      for (const auto& route : accepted)
        if (route.size() > i + 1 &&
            std::equal(route.begin(), route.begin() + i + 1, prev.begin()))
          banned_link[graph.find_link(route[i], route[i + 1])] = 1;
      for (std::size_t j = 0; j < i; ++j) banned_node[prev[j]] = 1;

      const std::vector<NodeId> spur = lex_min_shortest(
          graph, prev[i], destination, banned_node, banned_link);
      if (spur.empty()) continue;
      std::vector<NodeId> route(prev.begin(), prev.begin() + i);
      route.insert(route.end(), spur.begin(), spur.end());
      candidates.insert(std::move(route));
    }
    if (candidates.empty()) break;
    accepted.push_back(
        std::move(candidates.extract(candidates.begin()).value()));
  }
  return accepted;
}

}  // namespace opto::testlib
