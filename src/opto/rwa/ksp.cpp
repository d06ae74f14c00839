#include "opto/rwa/ksp.hpp"

#include <algorithm>
#include <span>

#include "opto/graph/graph_algo.hpp"
#include "opto/util/assert.hpp"

namespace opto::rwa {

namespace {

/// A reverse BFS from one destination, run only as far as its callers
/// ask. `hops[v]` is v's hop count to the destination once v is labelled
/// and kUnreachable before; `order` holds the labelled nodes in BFS order
/// and `order[head..tail)` is the frontier still to expand. Between
/// searches every label is kUnreachable, so `clear` resets exactly the
/// nodes the search labelled.
struct ReverseBfs {
  std::vector<std::uint32_t> hops;
  std::vector<NodeId> order;  ///< each node enters once
  std::size_t head = 0, tail = 0;

  void bind(NodeId nodes) {
    hops.assign(nodes, kUnreachable);
    order.assign(nodes, 0);
    head = tail = 0;
  }

  void start(NodeId destination) {
    hops[destination] = 0;
    order[0] = destination;
    head = 0;
    tail = 1;
  }

  /// Expands the search until `node` has a label or nothing is left to
  /// expand. `admit(y, e)` says whether node y and its link e = y → x may
  /// be used. BFS assigns labels in non-decreasing order, so once `node`
  /// has label d every node nearer the destination than d is labelled
  /// with its final value; farther nodes may still read kUnreachable.
  template <class Admit>
  void reach(const Graph& graph, NodeId node, Admit admit) {
    while (head < tail && hops[node] == kUnreachable) {
      const NodeId x = order[head++];
      // The incoming link y → x is the reverse of the outgoing x → y.
      for (EdgeId e : graph.out_links(x)) {
        const NodeId y = graph.target(e);
        if (hops[y] != kUnreachable || !admit(y, Graph::reverse(e))) continue;
        hops[y] = hops[x] + 1;
        order[tail++] = y;
      }
    }
  }

  void clear() {
    for (std::size_t i = 0; i < tail; ++i) hops[order[i]] = kUnreachable;
    head = tail = 0;
  }
};

/// One Yen candidate: the workspace's `arena[offset, offset + size)`,
/// spurred off an accepted route at node index `deviation`.
struct Candidate {
  std::uint32_t offset;
  std::uint32_t size;
  std::uint32_t deviation;
};

/// The thread's scratch for route searches, sized to the graph last
/// searched. Between calls both BFS rows are all-kUnreachable, both ban
/// masks are all-zero and the candidate list is empty, so a search
/// resets only what it touched and rebinding to a graph of the same
/// shape needs no work.
struct SearchWorkspace {
  ReverseBfs row;     ///< unbanned hops to the call's destination
  ReverseBfs banned;  ///< the fallback's BFS under a spur's bans
  std::vector<char> banned_node;
  std::vector<char> banned_link;
  std::vector<EdgeId> touched;  ///< links banned by the current spur
  std::vector<std::uint32_t> dead;  ///< == stamp: no route on from here
  std::uint32_t stamp = 0;
  std::vector<NodeId> arena;  ///< candidate node sequences
  std::vector<Candidate> candidates;

  void bind(const Graph& graph) {
    if (dead.size() == graph.node_count() &&
        banned_link.size() == graph.link_count())
      return;
    row.bind(graph.node_count());
    banned.bind(graph.node_count());
    banned_node.assign(graph.node_count(), 0);
    banned_link.assign(graph.link_count(), 0);
    dead.assign(graph.node_count(), 0);
    stamp = 0;
  }

  bool admits(NodeId v, EdgeId e) const {
    return !banned_node[v] && !banned_link[e];
  }

  /// A stamp no node of `dead` holds yet.
  std::uint32_t fresh_stamp() {
    if (++stamp == 0) {
      std::fill(dead.begin(), dead.end(), 0);
      stamp = 1;
    }
    return stamp;
  }
};

SearchWorkspace& workspace(const Graph& graph) {
  thread_local SearchWorkspace ws;
  ws.bind(graph);
  return ws;
}

/// Appends to `out` the lexicographically smallest route source →
/// destination of exactly `hops[source]` links whose every link u → v has
/// hops[v] == hops[u] - 1 and is admitted by the workspace's bans; returns
/// false, appending nothing, when the bans cut every such route. `hops`
/// must label every node nearer the destination than the source. The
/// walk is a depth-first search that tries the smallest next node first;
/// a node it backs out of is stamped dead for this walk (whether a route
/// goes on from a node does not depend on how the walk got there, and
/// hops strictly fall, so no route revisits a node). On a row computed
/// under the same bans every labelled node has an admitted next node, so
/// there the walk never backs out: it is the greedy lex-min walk.
bool walk(const Graph& graph, const std::vector<std::uint32_t>& hops,
          NodeId source, NodeId destination, SearchWorkspace& ws,
          std::vector<NodeId>& out) {
  const std::size_t base = out.size();
  const std::uint32_t stamp = ws.fresh_stamp();
  out.push_back(source);
  while (true) {
    const NodeId u = out.back();
    if (u == destination) return true;
    NodeId best = kInvalidNode;
    for (EdgeId e : graph.out_links(u)) {
      const NodeId v = graph.target(e);
      if (hops[v] != hops[u] - 1 || ws.dead[v] == stamp || !ws.admits(v, e))
        continue;
      best = std::min(best, v);
    }
    if (best != kInvalidNode) {
      out.push_back(best);
      continue;
    }
    ws.dead[u] = stamp;
    out.pop_back();
    if (out.size() == base) return false;
  }
}

constexpr auto kAnyLink = [](NodeId, EdgeId) { return true; };

/// Appends to `out` the lexicographically smallest shortest route
/// source → destination with no bans, allocating only that route;
/// returns false when the destination is unreachable. `ws.row` must be
/// started at `destination`.
bool first_route(const Graph& graph, NodeId source, NodeId destination,
                 SearchWorkspace& ws, std::vector<NodeId>& out) {
  ws.row.reach(graph, source, kAnyLink);
  if (ws.row.hops[source] == kUnreachable) return false;
  out.reserve(out.size() + ws.row.hops[source] + 1);
  return walk(graph, ws.row.hops, source, destination, ws, out);
}

/// Appends to `out` the lexicographically smallest shortest route
/// source → destination under the workspace's bans; returns false,
/// appending nothing, when none exists. `ws.row` must be started at
/// `destination`; the source is a node of an accepted route other than
/// the destination, and is not banned. Bans only remove links, so no banned route is shorter
/// than the unbanned distance: a route along the unbanned row's
/// shortest-route DAG, when the bans leave one, is the answer. Only when
/// they cut all of them does a BFS under the bans run.
bool lex_min_shortest(const Graph& graph, NodeId source, NodeId destination,
                      SearchWorkspace& ws, std::vector<NodeId>& out) {
  const auto out_links = graph.out_links(source);
  if (std::none_of(out_links.begin(), out_links.end(), [&](EdgeId e) {
        return ws.admits(graph.target(e), e);
      }))
    return false;

  ws.row.reach(graph, source, kAnyLink);
  if (walk(graph, ws.row.hops, source, destination, ws, out)) return true;

  ReverseBfs& bfs = ws.banned;
  bfs.start(destination);
  bfs.reach(graph, source,
            [&](NodeId y, EdgeId e) { return ws.admits(y, e); });
  const bool found = bfs.hops[source] != kUnreachable;
  if (found) {
    const bool walked = walk(graph, bfs.hops, source, destination, ws, out);
    OPTO_ASSERT(walked);
  }
  bfs.clear();
  return found;
}

/// Yen's enumeration with Lawler's rule, `ws.row` started at
/// `destination` and the first route already in `accepted`.
void yen(const Graph& graph, NodeId destination, std::uint32_t k,
         SearchWorkspace& ws, std::vector<std::vector<NodeId>>& accepted) {
  std::vector<NodeId>& arena = ws.arena;
  std::vector<Candidate>& candidates = ws.candidates;
  const auto route_of = [&](const Candidate& c) {
    return std::span<const NodeId>(arena.data() + c.offset, c.size);
  };
  std::uint32_t deviation = 0;  // of the newest accepted route
  while (accepted.size() < k) {
    const std::vector<NodeId>& prev = accepted.back();
    // Lawler's rule: a root prev[0..i] with i < deviation is also a root
    // of the route prev was spurred from, and was spurred when that route
    // was accepted; spurring it again only repeats candidates (DESIGN.md
    // §11 has the argument).
    for (std::size_t i = deviation; i + 1 < prev.size(); ++i) {
      // Deviate at spur node prev[i]: keep the root prev[0..i], ban the
      // next-links of every accepted route sharing that root, and ban
      // the root's interior nodes so the spur route stays loopless.
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

      const std::size_t base = arena.size();
      arena.insert(arena.end(), prev.begin(), prev.begin() + i);
      const bool found =
          lex_min_shortest(graph, prev[i], destination, ws, arena);

      for (std::size_t j = 0; j < i; ++j) ws.banned_node[prev[j]] = 0;
      for (EdgeId e : ws.touched) ws.banned_link[e] = 0;
      ws.touched.clear();

      const std::span<const NodeId> candidate(arena.data() + base,
                                              arena.size() - base);
      if (found && std::none_of(candidates.begin(), candidates.end(),
                                [&](const Candidate& c) {
                                  return std::ranges::equal(route_of(c),
                                                            candidate);
                                }))
        candidates.push_back(
            Candidate{static_cast<std::uint32_t>(base),
                      static_cast<std::uint32_t>(candidate.size()),
                      static_cast<std::uint32_t>(i)});
      else
        arena.resize(base);
    }
    if (candidates.empty()) break;

    // The list holds no repeats, so its least route is unique.
    const auto best = std::min_element(
        candidates.begin(), candidates.end(),
        [&](const Candidate& a, const Candidate& b) {
          const auto x = route_of(a), y = route_of(b);
          if (x.size() != y.size()) return x.size() < y.size();
          return std::ranges::lexicographical_compare(x, y);
        });
    const auto route = route_of(*best);
    accepted.emplace_back(route.begin(), route.end());
    deviation = best->deviation;
    *best = candidates.back();
    candidates.pop_back();
  }
  arena.clear();
  candidates.clear();
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

  SearchWorkspace& ws = workspace(graph);
  ws.row.start(destination);
  std::vector<NodeId> first;
  if (first_route(graph, source, destination, ws, first)) {
    accepted.push_back(std::move(first));
    yen(graph, destination, k, ws, accepted);
  }
  ws.row.clear();
  return accepted;
}

std::vector<NodeId> shortest_route(const Graph& graph, NodeId source,
                                   NodeId destination) {
  OPTO_ASSERT(source < graph.node_count() &&
              destination < graph.node_count());
  SearchWorkspace& ws = workspace(graph);
  std::vector<NodeId> route;
  ws.row.start(destination);
  first_route(graph, source, destination, ws, route);
  ws.row.clear();
  return route;
}

}  // namespace opto::rwa
