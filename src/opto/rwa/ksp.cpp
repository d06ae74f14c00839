#include "opto/rwa/ksp.hpp"

#include <algorithm>
#include <set>

#include "opto/graph/graph_algo.hpp"
#include "opto/util/assert.hpp"

namespace opto::rwa {

namespace {

/// Orders candidate routes by (length, lexicographic node sequence) —
/// the canonical enumeration order of the module.
struct RouteLess {
  bool operator()(const std::vector<NodeId>& a,
                  const std::vector<NodeId>& b) const {
    if (a.size() != b.size()) return a.size() < b.size();
    return a < b;
  }
};

/// The thread's scratch for route searches, sized to the graph last
/// searched. Between calls `dist` is all-kUnreachable and both ban masks
/// are all-zero, so a search resets only what it touched and rebinding
/// to a graph of the same shape needs no work.
struct SearchWorkspace {
  std::vector<std::uint32_t> dist;  ///< hops to the destination
  std::vector<NodeId> queue;        ///< BFS order; each node enters once
  std::vector<char> banned_node;
  std::vector<char> banned_link;
  std::vector<EdgeId> touched;  ///< links banned by the current spur
  std::vector<NodeId> spur;     ///< root + spur route being built

  void bind(const Graph& graph) {
    if (dist.size() == graph.node_count() &&
        banned_link.size() == graph.link_count())
      return;
    dist.assign(graph.node_count(), kUnreachable);
    queue.assign(graph.node_count(), 0);
    banned_node.assign(graph.node_count(), 0);
    banned_link.assign(graph.link_count(), 0);
    // A simple route has at most node_count nodes, so building one never
    // reallocates.
    spur.reserve(graph.node_count());
  }
};

SearchWorkspace& workspace(const Graph& graph) {
  thread_local SearchWorkspace ws;
  ws.bind(graph);
  return ws;
}

/// Appends to `out` the lexicographically smallest shortest path
/// source → destination that avoids the workspace's banned nodes and
/// banned directed links; returns false, appending nothing, when none
/// exists. Two phases: a reverse BFS from the destination computes
/// hops-to-go under the bans, then a greedy forward walk picks the
/// smallest next node that still lies on some shortest path.
///
/// The BFS stops once the source has a distance d. BFS assigns
/// distances in non-decreasing order, so at that moment every node
/// nearer the destination than d already holds its final distance;
/// farther nodes may still read kUnreachable. The walk only accepts
/// dist[v] == dist[u] - 1 < d, so it sees the same candidates, and makes
/// the same lex-min choices, as a walk over the full BFS.
bool lex_min_shortest(const Graph& graph, NodeId source, NodeId destination,
                      SearchWorkspace& ws, std::vector<NodeId>& out) {
  if (ws.banned_node[source] || ws.banned_node[destination]) return false;
  if (source == destination) {
    out.push_back(source);
    return true;
  }

  std::vector<std::uint32_t>& dist = ws.dist;
  dist[destination] = 0;
  ws.queue[0] = destination;
  std::size_t head = 0, tail = 1;
  while (head < tail && dist[source] == kUnreachable) {
    const NodeId x = ws.queue[head++];
    // The incoming link y → x is the reverse of the outgoing x → y.
    for (EdgeId e : graph.out_links(x)) {
      const NodeId y = graph.target(e);
      if (ws.banned_node[y] || ws.banned_link[Graph::reverse(e)]) continue;
      if (dist[y] != kUnreachable) continue;
      dist[y] = dist[x] + 1;
      ws.queue[tail++] = y;
    }
  }

  const bool found = dist[source] != kUnreachable;
  if (found) {
    out.reserve(out.size() + dist[source] + 1);
    out.push_back(source);
    NodeId u = source;
    while (u != destination) {
      NodeId best = kInvalidNode;
      for (EdgeId e : graph.out_links(u)) {
        const NodeId v = graph.target(e);
        if (ws.banned_node[v] || ws.banned_link[e]) continue;
        if (dist[v] != dist[u] - 1) continue;
        if (best == kInvalidNode || v < best) best = v;
      }
      OPTO_ASSERT(best != kInvalidNode);
      out.push_back(best);
      u = best;
    }
  }
  for (std::size_t i = 0; i < tail; ++i) dist[ws.queue[i]] = kUnreachable;
  return found;
}

}  // namespace

std::vector<std::vector<NodeId>> k_shortest_routes(const Graph& graph,
                                                   NodeId source,
                                                   NodeId destination,
                                                   std::uint32_t k) {
  OPTO_ASSERT(source < graph.node_count() &&
              destination < graph.node_count());
  std::vector<std::vector<NodeId>> accepted;
  if (k == 0) return accepted;
  if (source == destination) {
    accepted.push_back({source});
    return accepted;
  }

  SearchWorkspace& ws = workspace(graph);
  std::vector<NodeId> first;
  if (!lex_min_shortest(graph, source, destination, ws, first))
    return accepted;
  accepted.push_back(std::move(first));

  std::set<std::vector<NodeId>, RouteLess> candidates;
  while (accepted.size() < k) {
    const std::vector<NodeId>& prev = accepted.back();
    for (std::size_t i = 0; i + 1 < prev.size(); ++i) {
      // Deviate at spur node prev[i]: keep the root prev[0..i], ban the
      // next-links of every accepted route sharing that root, and ban
      // the root's interior nodes so the spur path stays loopless.
      for (const auto& route : accepted) {
        if (route.size() <= i + 1) continue;
        if (!std::equal(route.begin(), route.begin() + i + 1, prev.begin()))
          continue;
        const EdgeId e = graph.find_link(route[i], route[i + 1]);
        OPTO_ASSERT(e != kInvalidEdge);
        ws.banned_link[e] = 1;
        ws.touched.push_back(e);
      }
      for (std::size_t j = 0; j < i; ++j) ws.banned_node[prev[j]] = 1;

      ws.spur.assign(prev.begin(), prev.begin() + i);
      const bool found =
          lex_min_shortest(graph, prev[i], destination, ws, ws.spur);

      for (std::size_t j = 0; j < i; ++j) ws.banned_node[prev[j]] = 0;
      for (EdgeId e : ws.touched) ws.banned_link[e] = 0;
      ws.touched.clear();
      if (found) candidates.insert(ws.spur);
    }
    if (candidates.empty()) break;
    accepted.push_back(
        std::move(candidates.extract(candidates.begin()).value()));
  }
  return accepted;
}

std::vector<NodeId> shortest_route(const Graph& graph, NodeId source,
                                   NodeId destination) {
  OPTO_ASSERT(source < graph.node_count() &&
              destination < graph.node_count());
  std::vector<NodeId> route;
  lex_min_shortest(graph, source, destination, workspace(graph), route);
  return route;
}

}  // namespace opto::rwa
