#include "opto/rwa/ksp.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <mutex>

#include "opto/graph/graph_algo.hpp"
#include "opto/obs/obs.hpp"
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

  /// Expands the search until `node` has a label, nothing is left to
  /// expand, or every node still to expand lies `max_hops` from the
  /// destination, so that `node` can get no label of at most `max_hops`.
  /// `admit(y, e)` says whether node y and its link e = y → x may be
  /// used. BFS assigns labels in non-decreasing order, so once `node` has
  /// label d every node nearer the destination than d is labelled with
  /// its final value; farther nodes may still read kUnreachable.
  template <class Admit>
  void reach(const Graph& graph, NodeId node, Admit admit,
             std::uint32_t max_hops = kUnreachable) {
    while (head < tail && hops[node] == kUnreachable &&
           hops[order[head]] < max_hops) {
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

/// One Yen candidate: the workspace's `arena[offset, offset + size)`
/// (links), spurred off an accepted route at node index `deviation`.
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
  ReverseBfs row;     ///< past HopTable::kMaxNodes: the call's own row
  ReverseBfs banned;  ///< the fallback's BFS under a spur's bans
  std::vector<std::uint16_t> spare;  ///< a row another thread is filling
  std::vector<NodeId> queue;         ///< a row fill's BFS order
  std::vector<char> banned_node;
  std::vector<char> banned_link;
  std::vector<EdgeId> touched;  ///< links banned by the current spur
  std::vector<std::uint32_t> dead;  ///< == stamp: no route on from here
  std::uint32_t stamp = 0;
  std::vector<EdgeId> arena;  ///< candidate link sequences
  std::vector<Candidate> candidates;  ///< by size, non-decreasing
  /// Per route the call accepted: its deviation index.
  std::vector<std::uint32_t> deviations;
  RouteList routes;  ///< the node-sequence overloads' link output

  void bind(const Graph& graph) {
    if (dead.size() == graph.node_count() &&
        banned_link.size() == graph.link_count())
      return;
    row.bind(graph.node_count());
    banned.bind(graph.node_count());
    spare.assign(graph.node_count(), 0);
    queue.assign(graph.node_count(), 0);
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

/// One search's tallies, added to the obs counters once per call.
struct SearchTally {
  std::uint64_t dag_routes = 0;  ///< routes after the first read off the DAG
  std::uint64_t spurs = 0;       ///< spur nodes left by Lawler's rule
  std::uint64_t capped = 0;      ///< spurs the length cap ended, no BFS
  std::uint64_t fallbacks = 0;   ///< spurs that ran the banned BFS
};

void record(const SearchTally& tally) {
  static obs::Counter dag_routes{"rwa.ksp.dag_routes"};
  static obs::Counter spurs{"rwa.ksp.spurs"};
  static obs::Counter capped{"rwa.ksp.capped"};
  static obs::Counter fallbacks{"rwa.ksp.fallbacks"};
  if (tally.dag_routes != 0) dag_routes.add(tally.dag_routes);
  if (tally.spurs != 0) spurs.add(tally.spurs);
  if (tally.capped != 0) capped.add(tally.capped);
  if (tally.fallbacks != 0) fallbacks.add(tally.fallbacks);
}

enum RowState : std::uint8_t { kRowEmpty, kRowFilling, kRowReady };

/// Writes every node's unbanned hop count to `destination` into `hops`
/// (HopTable::kNoRoute when it cannot reach it): a full reverse BFS
/// through `queue`.
void fill_row(const Graph& graph, NodeId destination, std::uint16_t* hops,
              std::vector<NodeId>& queue) {
  std::fill(hops, hops + graph.node_count(), HopTable::kNoRoute);
  hops[destination] = 0;
  queue[0] = destination;
  for (std::size_t head = 0, tail = 1; head < tail; ++head) {
    const NodeId x = queue[head];
    for (EdgeId e : graph.out_links(x)) {
      const NodeId y = graph.target(e);
      if (hops[y] != HopTable::kNoRoute) continue;
      hops[y] = static_cast<std::uint16_t>(hops[x] + 1);
      queue[tail++] = y;
    }
  }
}

/// Appends to `out` the links of the lexicographically smallest route
/// from `u` to `destination` along the unbanned shortest-route DAG of
/// `hops`: from each node, the link to the smallest next node one hop
/// nearer. `hops` must label u and, with final values, every node nearer
/// the destination. Every labelled node but the destination has such a
/// next node, so the descent never backs out.
template <class Hop>
void descend(const Graph& graph, const Hop* hops, NodeId u,
             NodeId destination, std::vector<EdgeId>& out) {
  while (u != destination) {
    const auto nearer = hops[u] - 1;
    EdgeId best = kInvalidEdge;
    NodeId next = kInvalidNode;
    for (EdgeId e : graph.out_links(u)) {
      const NodeId v = graph.target(e);
      if (v < next && hops[v] == nearer) {
        best = e;
        next = v;
      }
    }
    OPTO_ASSERT(best != kInvalidEdge);
    out.push_back(best);
    u = next;
  }
}

constexpr std::uint32_t kLastRoute = ~0u;

/// Appends to `out` the shortest route that follows its last route,
/// itself a shortest route, in lexicographic order, and returns the
/// number of links the two share (the new route's deviation index);
/// returns kLastRoute, appending nothing, when there is none. The last
/// route's deepest node u with a next node v of the DAG above the one it
/// takes is where the two part: the new route keeps the links before u,
/// steps to the least such v and descends greedily from there. `hops` is
/// as for `descend`, from the routes' source.
template <class Hop>
std::uint32_t next_dag_route(const Graph& graph, const Hop* hops,
                             NodeId destination, RouteList& out) {
  const std::uint32_t begin = out.begin(out.size() - 1);
  const std::uint32_t end = out.ends.back();
  for (std::uint32_t i = end - begin; i-- > 0;) {
    const EdgeId taken = out.links[begin + i];
    const NodeId u = graph.source(taken), after = graph.target(taken);
    const auto nearer = hops[u] - 1;
    EdgeId best = kInvalidEdge;
    NodeId next = kInvalidNode;
    for (EdgeId e : graph.out_links(u)) {
      const NodeId v = graph.target(e);
      if (v > after && v < next && hops[v] == nearer) {
        best = e;
        next = v;
      }
    }
    if (best == kInvalidEdge) continue;
    out.links.resize(end + i);
    std::copy_n(out.links.data() + begin, i, out.links.data() + end);
    out.links.push_back(best);
    descend(graph, hops, next, destination, out.links);
    out.ends.push_back(static_cast<std::uint32_t>(out.links.size()));
    return i;
  }
  return kLastRoute;
}

/// Appends to `out` the links of the lexicographically smallest route
/// source → destination of exactly `hops[source]` links whose every link
/// u → v has hops[v] == hops[u] - 1 and is admitted by the workspace's
/// bans; returns false, appending nothing, when the bans cut every such
/// route. `hops` must label every node nearer the destination than the
/// source. The walk is a depth-first search that tries the smallest next
/// node first; a node it backs out of is stamped dead for this walk
/// (whether a route goes on from a node does not depend on how the walk
/// got there, and hops strictly fall, so no route revisits a node). On a
/// row computed under the same bans every labelled node has an admitted
/// next node, so there the walk never backs out: it is the greedy
/// lex-min walk.
template <class Hop>
bool walk(const Graph& graph, const Hop* hops, NodeId source,
          NodeId destination, SearchWorkspace& ws, std::vector<EdgeId>& out) {
  const std::size_t base = out.size();
  const std::uint32_t stamp = ws.fresh_stamp();
  NodeId u = source;
  while (u != destination) {
    const auto nearer = hops[u] - 1;
    EdgeId best = kInvalidEdge;
    NodeId next = kInvalidNode;
    for (EdgeId e : graph.out_links(u)) {
      const NodeId v = graph.target(e);
      if (v >= next || hops[v] != nearer || ws.dead[v] == stamp ||
          !ws.admits(v, e))
        continue;
      best = e;
      next = v;
    }
    if (best != kInvalidEdge) {
      out.push_back(best);
      u = next;
      continue;
    }
    ws.dead[u] = stamp;
    if (out.size() == base) return false;
    u = graph.source(out.back());
    out.pop_back();
  }
  return true;
}

constexpr auto kAnyLink = [](NodeId, EdgeId) { return true; };

/// The unbanned hops to one call's destination: the destination's row of
/// the graph's table or, for a graph the table keeps no rows for, the
/// workspace's reverse BFS, extended only as far as the call asks.
class DestinationRow {
 public:
  DestinationRow(const HopTable& table, NodeId destination,
                 SearchWorkspace& ws)
      : graph_(table.graph()), full_(table.row(destination).data()),
        lazy_(ws.row) {
    if (full_ == nullptr) lazy_.start(destination);
  }
  ~DestinationRow() {
    if (full_ == nullptr) lazy_.clear();
  }
  DestinationRow(const DestinationRow&) = delete;
  DestinationRow& operator=(const DestinationRow&) = delete;

  /// v's unbanned hop count, kUnreachable when v cannot reach the
  /// destination.
  std::uint32_t hops(NodeId v) {
    if (full_ != nullptr)
      return full_[v] == HopTable::kNoRoute ? kUnreachable : full_[v];
    lazy_.reach(graph_, v, kAnyLink);
    return lazy_.hops[v];
  }

  /// `fn(hops)` with the row's hop array: every node nearer the
  /// destination than the last node asked about through hops() carries
  /// its final label.
  template <class Fn>
  decltype(auto) visit(Fn&& fn) const {
    return full_ != nullptr ? fn(full_) : fn(lazy_.hops.data());
  }

 private:
  const Graph& graph_;
  const std::uint16_t* full_;
  ReverseBfs& lazy_;
};

/// Appends to `out` the links of the lexicographically smallest shortest
/// route source → destination under the workspace's bans, provided it
/// has at most `budget` links; returns false, appending nothing,
/// otherwise. The source is a node of an accepted route other than the
/// destination, is not banned, and is at most `budget` unbanned hops from
/// the destination. Bans only remove links, so no banned route is shorter
/// than the unbanned distance: a route along the unbanned row's
/// shortest-route DAG, when the bans leave one, is the answer. Only when
/// they cut all of them, and a route one link longer fits the budget,
/// does a BFS under the bans run, stopped at the budget.
bool lex_min_shortest(const Graph& graph, DestinationRow& row, NodeId source,
                      NodeId destination, std::uint32_t budget,
                      SearchWorkspace& ws, SearchTally& tally,
                      std::vector<EdgeId>& out) {
  const auto out_links = graph.out_links(source);
  if (std::none_of(out_links.begin(), out_links.end(), [&](EdgeId e) {
        return ws.admits(graph.target(e), e);
      }))
    return false;

  if (row.visit([&](const auto* hops) {
        return walk(graph, hops, source, destination, ws, out);
      }))
    return true;
  if (row.hops(source) + 1 > budget) {
    ++tally.capped;
    return false;
  }

  ++tally.fallbacks;
  ReverseBfs& bfs = ws.banned;
  bfs.start(destination);
  bfs.reach(
      graph, source, [&](NodeId y, EdgeId e) { return ws.admits(y, e); },
      budget);
  const bool found = bfs.hops[source] != kUnreachable;
  if (found) {
    const bool walked =
        walk(graph, bfs.hops.data(), source, destination, ws, out);
    OPTO_ASSERT(walked);
  }
  bfs.clear();
  return found;
}

/// Yen's enumeration with Lawler's rule and the length cap, continuing
/// from the routes out[first..] already accepted, none of them spurred
/// yet; ws.deviations holds the index each one's spurs start at. Node i
/// of a route is the source of its link i, so the root of a spur at node
/// i is the route's first i links and the bans read link ids directly.
void yen(const Graph& graph, DestinationRow& row, NodeId destination,
         std::uint32_t k, std::uint32_t first, SearchWorkspace& ws,
         SearchTally& tally, RouteList& out) {
  std::vector<EdgeId>& arena = ws.arena;
  std::vector<Candidate>& candidates = ws.candidates;
  const auto route_of = [&](const Candidate& c) {
    return std::span<const EdgeId>(arena.data() + c.offset, c.size);
  };
  const auto accepted = [&] { return out.size() - first; };
  // The cap: with need = k - accepted routes still to accept, a spur
  // route longer than the need-th shortest candidate can never be
  // accepted (DESIGN.md §11). A route of exactly that length can still
  // win on lex order, so the cap keeps it.
  const auto cap = [&] {
    const std::size_t need = k - accepted();
    return candidates.size() < need ? kUnreachable
                                    : candidates[need - 1].size;
  };

  // Spurs accepted route r from its deviation index on.
  const auto spur_route = [&](std::uint32_t r) {
    const std::span<const EdgeId> prev = out[r];
    // Lawler's rule: a root prev[0..i) with i below the start is also a
    // root of the route prev was spurred from, and was spurred with that
    // route; spurring it again only repeats candidates (DESIGN.md §11 has
    // the argument, and why a route read off the DAG starts one further).
    for (std::uint32_t i = ws.deviations[r - first]; i < prev.size(); ++i) {
      ++tally.spurs;
      const std::uint32_t limit = cap();
      const NodeId spur = graph.source(prev[i]);
      if (i + row.hops(spur) > limit) {
        // A link lowers the unbanned hop count by at most one, so the
        // root plus the spur node's hops never falls along prev, and the
        // cap never rises: every later spur is capped as well.
        const std::uint64_t rest = prev.size() - i;
        tally.spurs += rest - 1;
        tally.capped += rest;
        break;
      }
      // Deviate at the spur node: keep the root prev[0..i), ban link i of
      // every accepted route sharing that root, and ban the root's nodes
      // before the spur node so the spur route stays loopless.
      for (std::uint32_t a = first; a < out.size(); ++a) {
        const std::span<const EdgeId> route = out[a];
        if (route.size() <= i ||
            !std::equal(route.begin(), route.begin() + i, prev.begin()))
          continue;
        ws.banned_link[route[i]] = 1;
        ws.touched.push_back(route[i]);
      }
      for (std::uint32_t j = 0; j < i; ++j)
        ws.banned_node[graph.source(prev[j])] = 1;

      const std::size_t base = arena.size();
      arena.insert(arena.end(), prev.begin(), prev.begin() + i);
      const bool found = lex_min_shortest(graph, row, spur, destination,
                                          limit - i, ws, tally, arena);

      for (std::uint32_t j = 0; j < i; ++j)
        ws.banned_node[graph.source(prev[j])] = 0;
      for (EdgeId e : ws.touched) ws.banned_link[e] = 0;
      ws.touched.clear();

      const std::span<const EdgeId> candidate(arena.data() + base,
                                              arena.size() - base);
      if (found && std::none_of(candidates.begin(), candidates.end(),
                                [&](const Candidate& c) {
                                  return std::ranges::equal(route_of(c),
                                                            candidate);
                                })) {
        const Candidate added{static_cast<std::uint32_t>(base),
                              static_cast<std::uint32_t>(candidate.size()),
                              i};
        candidates.insert(
            std::upper_bound(candidates.begin(), candidates.end(), added,
                             [](const Candidate& a, const Candidate& b) {
                               return a.size < b.size;
                             }),
            added);
      } else {
        arena.resize(base);
      }
    }
  };

  // Routes of one length and one source compare as their node sequences
  // do when compared by each link's target.
  const auto target = [&graph](EdgeId e) { return graph.target(e); };
  for (std::uint32_t spurred = first; accepted() < k;) {
    for (; spurred < out.size(); ++spurred) spur_route(spurred);
    if (candidates.empty()) break;

    // The list holds no repeats, so its least route is unique: the
    // lex-least of the shortest ones, which lead the list.
    auto best = candidates.begin();
    for (auto it = best + 1; it != candidates.end() && it->size == best->size;
         ++it)
      if (std::ranges::lexicographical_compare(
              route_of(*it), route_of(*best), {}, target, target))
        best = it;
    const auto route = route_of(*best);
    out.links.insert(out.links.end(), route.begin(), route.end());
    out.ends.push_back(static_cast<std::uint32_t>(out.links.size()));
    ws.deviations.push_back(best->deviation);
    candidates.erase(best);
  }
  arena.clear();
  candidates.clear();
}

/// Grows `v` to hold `extra` more elements, at least doubling it when it
/// must grow, so that repeated appends keep amortized O(1) growth.
template <class T>
void reserve_more(std::vector<T>& v, std::size_t extra) {
  if (v.size() + extra > v.capacity())
    v.reserve(std::max(v.size() + extra, 2 * v.capacity()));
}

/// The node sequences of `routes`, each leaving `source`.
std::vector<std::vector<NodeId>> node_sequences(const Graph& graph,
                                                NodeId source,
                                                const RouteList& routes) {
  std::vector<std::vector<NodeId>> nodes;
  nodes.reserve(routes.size());
  for (std::uint32_t r = 0; r < routes.size(); ++r) {
    std::vector<NodeId>& route = nodes.emplace_back();
    route.reserve(routes[r].size() + 1);
    route.push_back(source);
    for (EdgeId e : routes[r]) route.push_back(graph.target(e));
  }
  return nodes;
}

}  // namespace

HopTable::HopTable(const Graph& graph) : graph_(&graph) {
  const std::size_t nodes = graph.node_count();
  if (nodes == 0 || nodes > kMaxNodes) return;
  // A row is written in full before it is published or read. Should the
  // mapping fail, the table keeps no rows and searches compute their own.
  const std::size_t bytes = nodes * nodes * sizeof(std::uint16_t);
  void* const rows = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                          MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (rows == MAP_FAILED) return;
  hops_ = {static_cast<std::uint16_t*>(rows), detail::UnmapRows{bytes}};
  state_ = std::make_unique<std::atomic<std::uint8_t>[]>(nodes);
}

void detail::UnmapRows::operator()(std::uint16_t* rows) const {
  munmap(rows, bytes);
}

std::span<const std::uint16_t> HopTable::row(NodeId destination) const {
  OPTO_ASSERT(destination < graph_->node_count());
  if (!keeps_rows()) return {};
  const std::size_t nodes = graph_->node_count();
  std::uint16_t* const row = hops_.get() + destination * nodes;
  std::atomic<std::uint8_t>& state = state_[destination];
  std::uint8_t seen = state.load(std::memory_order_acquire);
  if (seen == kRowReady) return {row, nodes};

  SearchWorkspace& ws = workspace(*graph_);
  if (seen == kRowEmpty &&
      state.compare_exchange_strong(seen, kRowFilling,
                                    std::memory_order_acquire)) {
    fill_row(*graph_, destination, row, ws.queue);
    state.store(kRowReady, std::memory_order_release);
    // Only the published fill counts: how many private copies a thread
    // fills while another is still filling the row depends on timing.
    static obs::Counter rows_filled{"rwa.rows.filled"};
    rows_filled.add(1);
    return {row, nodes};
  }
  if (seen == kRowReady) return {row, nodes};
  fill_row(*graph_, destination, ws.spare.data(), ws.queue);
  return {ws.spare.data(), nodes};
}

std::shared_ptr<const HopTable> shared_hop_table(
    const std::shared_ptr<const Graph>& graph) {
  OPTO_ASSERT(graph != nullptr);
  struct Entry {
    std::weak_ptr<const Graph> graph;
    std::shared_ptr<const HopTable> table;
  };
  static std::mutex mutex;
  static std::vector<Entry> entries;
  const std::lock_guard<std::mutex> lock(mutex);
  std::erase_if(entries, [](const Entry& e) { return e.graph.expired(); });
  // Aliasing pointers can share an owner yet point at different graphs.
  for (const Entry& e : entries)
    if (!e.graph.owner_before(graph) && !graph.owner_before(e.graph) &&
        &e.table->graph() == graph.get())
      return e.table;
  entries.push_back(Entry{graph, std::make_shared<const HopTable>(*graph)});
  return entries.back().table;
}

std::uint32_t k_shortest_routes(const HopTable& table, NodeId source,
                                NodeId destination, std::uint32_t k,
                                RouteList& out) {
  const Graph& graph = table.graph();
  OPTO_ASSERT(source < graph.node_count() &&
              destination < graph.node_count());
  if (k == 0) return 0;
  SearchWorkspace& ws = workspace(graph);
  DestinationRow row(table, destination, ws);
  const std::uint32_t hops = row.hops(source);
  if (hops == kUnreachable) return 0;

  // The shortest routes, read off the DAG in lexicographic order. A new
  // list grows once for up to kReservedRoutes routes of the first one's
  // length, not for k of them: a large k may ask for far more routes
  // than exist.
  constexpr std::uint32_t kReservedRoutes = 16;
  const std::uint32_t first = out.size();
  const std::uint32_t reserved = std::min(k, kReservedRoutes);
  reserve_more(out.links, std::size_t{reserved} * hops);
  reserve_more(out.ends, reserved);
  row.visit([&](const auto* h) {
    descend(graph, h, source, destination, out.links);
  });
  out.ends.push_back(static_cast<std::uint32_t>(out.links.size()));
  // Should Yen continue from these routes, each one's root of `deviation`
  // links is a root of the route before it, spurred there under the same
  // bans: its spurs start one link further.
  ws.deviations.assign(1, 0);
  SearchTally tally;
  while (out.size() - first < k) {
    const std::uint32_t deviation = row.visit([&](const auto* h) {
      return next_dag_route(graph, h, destination, out);
    });
    if (deviation == kLastRoute) break;
    ws.deviations.push_back(deviation + 1);
    ++tally.dag_routes;
  }
  if (out.size() - first < k)
    yen(graph, row, destination, k, first, ws, tally, out);
  record(tally);
  return out.size() - first;
}

std::vector<std::vector<NodeId>> k_shortest_routes(const HopTable& table,
                                                   NodeId source,
                                                   NodeId destination,
                                                   std::uint32_t k) {
  SearchWorkspace& ws = workspace(table.graph());
  RouteList& routes = ws.routes;
  routes.clear();
  k_shortest_routes(table, source, destination, k, routes);
  return node_sequences(table.graph(), source, routes);
}

bool shortest_route(const HopTable& table, NodeId source, NodeId destination,
                    std::vector<EdgeId>& out) {
  const Graph& graph = table.graph();
  OPTO_ASSERT(source < graph.node_count() &&
              destination < graph.node_count());
  SearchWorkspace& ws = workspace(graph);
  DestinationRow row(table, destination, ws);
  const std::uint32_t hops = row.hops(source);
  if (hops == kUnreachable) return false;
  reserve_more(out, hops);
  row.visit(
      [&](const auto* h) { descend(graph, h, source, destination, out); });
  return true;
}

std::vector<NodeId> shortest_route(const HopTable& table, NodeId source,
                                   NodeId destination) {
  std::vector<EdgeId>& links = workspace(table.graph()).routes.links;
  links.clear();
  if (!shortest_route(table, source, destination, links)) return {};
  std::vector<NodeId> nodes;
  nodes.reserve(links.size() + 1);
  nodes.push_back(source);
  for (EdgeId e : links) nodes.push_back(table.graph().target(e));
  return nodes;
}

}  // namespace opto::rwa
