// Oracle tests for the RWA strategy layer: hand-computed First-Fit /
// Least-Used / Random-Fit assignments on small named topologies, and a
// brute-force k-shortest-path oracle (exhaustive simple-path enumeration
// in the canonical (length, lexicographic) order) cross-checked against
// the Yen implementation and shortest_route over a few hundred generated
// graphs and every pair of four structured ones, hand-pinned fat-tree
// spurs, hand-built graphs on the boundary of Yen's length cap, and an
// independent recomputation of Valiant's routes. The hop table the
// searches read is checked against a fresh BFS, across graph lifetimes,
// under concurrent fills, and against a graph past its node limit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "opto/graph/bcube.hpp"
#include "opto/graph/butterfly.hpp"
#include "opto/graph/fattree.hpp"
#include "opto/graph/graph.hpp"
#include "opto/graph/graph_algo.hpp"
#include "opto/graph/hypercube.hpp"
#include "opto/graph/mesh.hpp"
#include "opto/graph/random_regular.hpp"
#include "opto/graph/ring.hpp"
#include "opto/obs/obs.hpp"
#include "opto/par/thread_pool.hpp"
#include "opto/rng/philox.hpp"
#include "opto/rng/rng.hpp"
#include "opto/rwa/ksp.hpp"
#include "opto/rwa/strategy.hpp"
#include "opto/testlib/reference_ksp.hpp"

namespace opto::rwa {
namespace {

Graph make_chain(NodeId nodes) {
  GraphBuilder builder(nodes, "chain");
  for (NodeId i = 0; i + 1 < nodes; ++i) builder.add_edge(i, i + 1);
  return std::move(builder).build();
}

/// Serves one request and returns the single assigned wavelength, or
/// nullopt when blocked. Asserts the single-route shape.
std::optional<Wavelength> serve(Strategy& strategy, NodeId source,
                                NodeId destination, std::uint32_t uid) {
  const RwaDecision decision =
      strategy.assign(RwaRequest{source, destination}, uid);
  if (!decision.accepted) return std::nullopt;
  EXPECT_EQ(decision.routes.size(), 1u);
  EXPECT_EQ(decision.lambdas.size(), 1u);
  EXPECT_EQ(decision.routes.front().source(), source);
  EXPECT_EQ(decision.routes.front().destination(), destination);
  return decision.lambdas.front();
}

TEST(RwaOracle, FirstFitOnChainByHand) {
  // Chain 0-1-2-3-4-5, B=2. (0→3) takes λ0 on links 0→1,1→2,2→3;
  // (1→2) finds λ0 busy on its only link and opens λ1; (3→5) is
  // link-disjoint from both so the lowest index λ0 is free again;
  // (0→5) then needs 1→2 where both wavelengths are taken → blocked.
  const Graph graph = make_chain(6);
  const HopTable routes(graph);
  RwaConfig config;
  config.bandwidth = 2;
  config.candidates = 3;
  const auto strategy = make_strategy(StrategyKind::FirstFit);
  strategy->begin(routes, config, 1);
  EXPECT_EQ(serve(*strategy, 0, 3, 0), Wavelength{0});
  EXPECT_EQ(serve(*strategy, 1, 2, 1), Wavelength{1});
  EXPECT_EQ(serve(*strategy, 3, 5, 2), Wavelength{0});
  EXPECT_EQ(serve(*strategy, 0, 5, 3), std::nullopt);
}

TEST(RwaOracle, LeastUsedSpreadsOverInServiceWavelengthsByHand) {
  // Same chain and arrival order as the First-Fit case. After (0→3)
  // on λ0 (usage 3 links) and (1→2) on λ1 (usage 1 link), the (3→5)
  // route has both wavelengths free: First-Fit takes λ0, Least-Used
  // takes the lighter in-service λ1.
  const Graph graph = make_chain(6);
  const HopTable routes(graph);
  RwaConfig config;
  config.bandwidth = 2;
  config.candidates = 3;
  const auto strategy = make_strategy(StrategyKind::LeastUsed);
  strategy->begin(routes, config, 1);
  EXPECT_EQ(serve(*strategy, 0, 3, 0), Wavelength{0});
  EXPECT_EQ(serve(*strategy, 1, 2, 1), Wavelength{1});
  EXPECT_EQ(serve(*strategy, 3, 5, 2), Wavelength{1});
}

TEST(RwaOracle, LeastUsedOpensTheBandAsReluctantlyAsFirstFit) {
  // With nothing in service Least-Used must fall back to the lowest
  // unused index, not jump to a high one: the band opens λ0 first.
  const Graph graph = make_ring(8);
  const HopTable routes(graph);
  RwaConfig config;
  config.bandwidth = 4;
  const auto strategy = make_strategy(StrategyKind::LeastUsed);
  strategy->begin(routes, config, 1);
  EXPECT_EQ(serve(*strategy, 0, 2, 0), Wavelength{0});
  // Ring routes 0→2 and 2→4 share no directed link; λ0 stays feasible
  // and is the only in-service wavelength, so it is reused, not λ1.
  EXPECT_EQ(serve(*strategy, 2, 4, 1), Wavelength{0});
}

TEST(RwaOracle, RandomFitMatchesTheKeyedPhiloxDrawByHand) {
  // On a fresh ring every wavelength is free, so Random-Fit's pick for
  // uid u must be exactly free[CounterRng(seed, round).below(B, u, 8)]
  // (slot 8 = kSlotRwaWavelength in rwa/strategy.cpp) with
  // free = {0, …, B-1}.
  const Graph graph = make_ring(8);
  const HopTable routes(graph);
  RwaConfig config;
  config.bandwidth = 4;
  config.seed = 0x5eedULL;
  const auto strategy = make_strategy(StrategyKind::RandomFit);
  for (const std::uint32_t round : {1u, 2u, 5u}) {
    strategy->begin(routes, config, round);
    const CounterRng rng(config.seed, round);
    // Node-disjoint requests: each pick sees the full free band.
    std::uint32_t uid = 0;
    for (const auto& [s, d] : {std::pair<NodeId, NodeId>{0, 1}, {2, 3},
                               {4, 5}, {6, 7}}) {
      const auto expected =
          static_cast<Wavelength>(rng.below(config.bandwidth, uid, 8));
      EXPECT_EQ(serve(*strategy, s, d, uid), expected)
          << "round " << round << " uid " << uid;
      ++uid;
    }
  }
}

TEST(RwaOracle, RadixTwoFatTreeIsATreeWithTheUniqueRoute) {
  // The radix-2 fat tree: 1 core, 2 pods × (1 agg + 1 edge), 1 host per
  // edge switch — 7 nodes, and a tree, so KSP finds exactly one route
  // between the two hosts: host-edge-agg-core-agg-edge-host.
  const FatTreeTopology topo = make_fat_tree(2);
  ASSERT_EQ(topo.graph.node_count(), 7u);
  ASSERT_EQ(topo.hosts.size(), 2u);
  const NodeId a = topo.hosts[0], b = topo.hosts[1];
  const HopTable table(topo.graph);
  const auto routes = k_shortest_routes(table, a, b, 4);
  ASSERT_EQ(routes.size(), 1u);
  const std::vector<NodeId> expected{a, topo.edge(0, 0), topo.aggregation(0, 0),
                                     topo.core(0), topo.aggregation(1, 0),
                                     topo.edge(1, 0), b};
  EXPECT_EQ(routes.front(), expected);

  // Opposite directions use opposite directed links, so both host pairs
  // fit on λ0 even at B=1.
  RwaConfig config;
  config.bandwidth = 1;
  const auto strategy = make_strategy(StrategyKind::FirstFit);
  strategy->begin(table, config, 1);
  EXPECT_EQ(serve(*strategy, a, b, 0), Wavelength{0});
  EXPECT_EQ(serve(*strategy, b, a, 1), Wavelength{0});
  // A second same-direction request has nowhere to go at B=1.
  EXPECT_EQ(serve(*strategy, a, b, 2), std::nullopt);
}

TEST(RwaOracle, FatTreeHostsInOnePodStayBelowTheCore) {
  // Radix 4: hosts on the same edge switch are 2 apart; same pod across
  // edge switches is 4 (host-edge-agg-edge-host); only cross-pod routes
  // climb to a core (length 6).
  const FatTreeTopology topo = make_fat_tree(4);
  ASSERT_GE(topo.hosts.size(), 5u);
  const HopTable table(topo.graph);
  const auto same_edge =
      k_shortest_routes(table, topo.hosts[0], topo.hosts[1], 1);
  ASSERT_EQ(same_edge.size(), 1u);
  EXPECT_EQ(same_edge.front().size(), 3u);
  const auto same_pod =
      k_shortest_routes(table, topo.hosts[0], topo.hosts[2], 1);
  ASSERT_EQ(same_pod.size(), 1u);
  EXPECT_EQ(same_pod.front().size(), 5u);
  const auto cross_pod =
      k_shortest_routes(table, topo.hosts[0], topo.hosts[4], 1);
  ASSERT_EQ(cross_pod.size(), 1u);
  EXPECT_EQ(cross_pod.front().size(), 7u);
}

/// Every simple path from `source` of at most `max_hops` links by DFS,
/// grouped by destination, each group in the canonical (length,
/// lexicographic node sequence) order the Yen enumeration promises.
/// Given a `stop` node, only the paths to it are kept (the other groups
/// stay empty), and none continues through it.
std::vector<std::vector<std::vector<NodeId>>> brute_force_routes_from(
    const Graph& graph, NodeId source, std::size_t max_hops,
    NodeId stop = kInvalidNode) {
  std::vector<std::vector<std::vector<NodeId>>> routes(graph.node_count());
  std::vector<NodeId> walk{source};
  std::vector<char> visited(graph.node_count(), 0);
  visited[source] = 1;
  const auto dfs = [&](auto&& self, NodeId at) -> void {
    if (stop == kInvalidNode || at == stop) routes[at].push_back(walk);
    if (at == stop || walk.size() > max_hops) return;
    for (const EdgeId link : graph.out_links(at)) {
      const NodeId next = graph.target(link);
      if (visited[next]) continue;
      visited[next] = 1;
      walk.push_back(next);
      self(self, next);
      walk.pop_back();
      visited[next] = 0;
    }
  };
  dfs(dfs, source);
  for (auto& group : routes)
    std::sort(group.begin(), group.end(),
              [](const std::vector<NodeId>& a, const std::vector<NodeId>& b) {
                if (a.size() != b.size()) return a.size() < b.size();
                return a < b;
              });
  return routes;
}

/// Exhaustive oracle: the first `k` simple paths source→destination of at
/// most `max_hops` links in the canonical order.
std::vector<std::vector<NodeId>> brute_force_routes(
    const Graph& graph, NodeId source, NodeId destination, std::uint32_t k,
    std::size_t max_hops = ~std::size_t{0}) {
  auto all = std::move(brute_force_routes_from(graph, source, max_hops,
                                               destination)[destination]);
  if (all.size() > k) all.resize(k);
  return all;
}

/// Probe counts of one band of generated graphs.
struct ProbeTally {
  std::uint64_t probes = 0;
  std::uint64_t nonempty = 0;
  std::uint64_t truncated = 0;
  std::uint64_t early_exit = 0;  ///< reachable nodes lie beyond the source
};

/// Four (source, destination, k) probes on `graph`: the Yen enumeration
/// must equal the exhaustive oracle sequence-for-sequence, and
/// shortest_route its first route (or nothing).
void probe_against_brute_force(const Graph& graph, Rng& rng,
                               std::uint64_t g, ProbeTally& tally) {
  const NodeId nodes = graph.node_count();
  const HopTable table(graph);
  for (std::uint32_t probe = 0; probe < 4; ++probe) {
    const NodeId source = static_cast<NodeId>(rng.next_below(nodes));
    const NodeId destination = static_cast<NodeId>(rng.next_below(nodes));
    const std::uint32_t k = 1u << rng.next_below(4);  // 1, 2, 4, 8
    const auto expected = brute_force_routes(graph, source, destination, k);
    const auto actual = k_shortest_routes(table, source, destination, k);
    ASSERT_EQ(actual, expected)
        << "graph " << g << " probe " << probe << " (" << source << "→"
        << destination << ", k=" << k << ")";
    const auto first = shortest_route(table, source, destination);
    if (expected.empty())
      EXPECT_TRUE(first.empty()) << "graph " << g << " probe " << probe;
    else
      EXPECT_EQ(first, expected.front()) << "graph " << g << " probe "
                                         << probe;
    ++tally.probes;
    if (!expected.empty()) ++tally.nonempty;
    if (expected.size() == k) ++tally.truncated;
    // A node farther from the destination than the source is never
    // reached by a reverse BFS that stops once the source has a distance.
    const auto dist = bfs_distances(graph, destination);
    if (dist[source] != kUnreachable &&
        std::any_of(dist.begin(), dist.end(), [&](std::uint32_t d) {
          return d != kUnreachable && d > dist[source];
        }))
      ++tally.early_exit;
  }
}

TEST(RwaOracle, YenMatchesBruteForceOnGeneratedGraphs) {
  // ~200 random graphs (2–8 nodes, Bernoulli edges, disconnected pairs
  // included), several (source, destination, k) probes each. Every other
  // one is followed by a sparse 9–16-node graph (a mostly-present chain
  // plus a few chords) whose long routes stop the reverse BFS well
  // before it has visited every node. The sizes interleave on one
  // thread, so the search workspace is rebound between graphs.
  ProbeTally dense, sparse;
  for (std::uint64_t g = 0; g < 200; ++g) {
    Rng rng = Rng::stream(0xac1e, g);
    const NodeId nodes = static_cast<NodeId>(2 + rng.next_below(7));
    GraphBuilder builder(nodes);
    for (NodeId u = 0; u < nodes; ++u)
      for (NodeId v = u + 1; v < nodes; ++v)
        if (rng.next_bernoulli(0.4)) builder.add_edge(u, v);
    Graph graph = std::move(builder).build();
    probe_against_brute_force(graph, rng, g, dense);
    if (HasFatalFailure()) return;
    if (g % 2 != 0) continue;

    Rng sparse_rng = Rng::stream(0x5ba25e, g);
    const NodeId sparse_nodes =
        static_cast<NodeId>(9 + sparse_rng.next_below(8));
    GraphBuilder sparse_graph_builder(sparse_nodes);
    for (NodeId u = 0; u < sparse_nodes; ++u)
      for (NodeId v = u + 1; v < sparse_nodes; ++v)
        if (sparse_rng.next_bernoulli(v == u + 1 ? 0.85 : 0.12))
          sparse_graph_builder.add_edge(u, v);
    Graph sparse_graph = std::move(sparse_graph_builder).build();
    probe_against_brute_force(sparse_graph, sparse_rng, g, sparse);
    if (HasFatalFailure()) return;
  }
  // The sweep must actually exercise reachable pairs and the k-cutoff,
  // not vacuously compare empty sets, and the sparse band must exercise
  // the early exit.
  EXPECT_EQ(dense.probes, 800u);
  EXPECT_GE(dense.nonempty, 400u);
  EXPECT_GE(dense.truncated, 50u);
  EXPECT_EQ(sparse.probes, 400u);
  EXPECT_GE(sparse.nonempty, 300u);
  EXPECT_GE(sparse.truncated, 200u);
  EXPECT_GE(sparse.early_exit, 200u);
}

TEST(RwaOracle, YenMatchesBruteForceOnStructuredGraphs) {
  // Every ordered pair of four structured graphs at k = 2, 3, 4 and 8, so
  // Lawler's rule (spurs start at the deviation index) runs on routes
  // past the second and the length cap on every pool size. The oracle
  // enumerates only routes of at most `max_hops` links; Yen's routes up
  // to that length must be exactly the oracle's. A probe is pinned
  // outright when the oracle finds k routes or `max_hops` admits every
  // simple path.
  struct Band {
    const char* name;
    Graph graph;
    std::size_t max_hops;
    bool runs_out;  ///< some pair has fewer than 3 routes
  };
  std::vector<Band> bands;
  bands.push_back({"fat-tree-4", make_fat_tree(4).graph, 8, true});
  bands.push_back({"mesh-4x4", make_mesh({4, 4}).graph, 9, false});
  bands.push_back({"hypercube-4", make_hypercube(4), 6, false});
  bands.push_back({"ring-8", make_ring(8), 7, true});
  for (const Band& band : bands) {
    const Graph& graph = band.graph;
    const HopTable table(graph);
    std::uint64_t probes = 0, pinned = 0, fewer = 0;
    for (NodeId source = 0; source < graph.node_count(); ++source) {
      const auto oracle =
          brute_force_routes_from(graph, source, band.max_hops);
      for (NodeId destination = 0; destination < graph.node_count();
           ++destination) {
        for (const std::uint32_t k : {2u, 3u, 4u, 8u}) {
          const auto actual =
              k_shortest_routes(table, source, destination, k);
          std::vector<std::vector<NodeId>> within;
          for (const auto& route : actual)
            if (route.size() <= band.max_hops + 1) within.push_back(route);
          const auto& all = oracle[destination];
          const std::vector<std::vector<NodeId>> expected(
              all.begin(), all.begin() + std::min<std::size_t>(k, all.size()));
          ASSERT_EQ(within, expected)
              << band.name << " (" << source << "→" << destination
              << ", k=" << k << ")";
          ++probes;
          if (expected.size() == k || band.max_hops + 1 >= graph.node_count())
            ++pinned;
          if (k >= 3 && source != destination && actual.size() < 3) ++fewer;
        }
      }
    }
    // Most probes are pinned outright. The ring (two routes per pair)
    // and the fat tree's same-edge host pairs (one) run out of routes;
    // the mesh and the hypercube never do.
    const std::uint64_t pairs =
        std::uint64_t{graph.node_count()} * graph.node_count();
    EXPECT_EQ(probes, 4 * pairs) << band.name;
    EXPECT_GE(pinned, probes * 3 / 4) << band.name;
    EXPECT_EQ(fewer > 0, band.runs_out) << band.name;
  }
}

/// Every node's number of shortest routes to `destination`, capped at
/// `cap` (0 when it cannot reach it): counted up the BFS layers.
std::vector<std::uint32_t> shortest_route_counts(const Graph& graph,
                                                 NodeId destination,
                                                 std::uint32_t cap) {
  const auto dist = bfs_distances(graph, destination);
  std::vector<NodeId> order(graph.node_count());
  std::iota(order.begin(), order.end(), NodeId{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](NodeId a, NodeId b) { return dist[a] < dist[b]; });
  std::vector<std::uint32_t> count(graph.node_count(), 0);
  count[destination] = 1;
  for (const NodeId v : order) {
    if (dist[v] == kUnreachable || v == destination) continue;
    for (const EdgeId e : graph.out_links(v)) {
      const NodeId u = graph.target(e);
      if (dist[u] + 1 == dist[v]) count[v] = std::min(cap, count[v] + count[u]);
    }
  }
  return count;
}

/// Probes on both sides of the DAG's route count.
struct BoundaryTally {
  std::uint64_t dag = 0;  ///< k <= the pair's shortest-route count
  std::uint64_t yen = 0;  ///< k one past it: Yen continues from the DAG
};

/// k_shortest_routes(s, d, k) for k = 1 up to one past the pair's
/// `shortest` routes, at most 8, against the first k routes of one
/// reference search (the order is canonical, so the first k routes do not
/// depend on the k asked for).
void probe_boundary(const HopTable& table, NodeId source, NodeId destination,
                    std::uint32_t shortest, BoundaryTally& tally,
                    const char* name) {
  const std::uint32_t top = std::min(8u, std::max(shortest, 1u) + 1);
  const auto reference = testlib::reference_k_shortest_routes(
      table.graph(), source, destination, top);
  for (std::uint32_t k = 1; k <= top; ++k) {
    const std::vector<std::vector<NodeId>> expected(
        reference.begin(),
        reference.begin() + std::min<std::size_t>(k, reference.size()));
    ASSERT_EQ(k_shortest_routes(table, source, destination, k), expected)
        << name << " (" << source << "→" << destination << ", k=" << k
        << ", " << shortest << " shortest)";
    if (shortest == 0) continue;
    ++(k <= shortest ? tally.dag : tally.yen);
  }
}

TEST(RwaOracle, DagAndYenAgreeWithTheReferenceAtTheirBoundary) {
  // Every ordered pair of eight graphs, at every k from 1 to one past the
  // pair's number of shortest routes (at most 8): up to that count the
  // DAG serves every route, one past it Yen continues from all of them.
  // Both must give the plain reference Yen's routes.
  std::vector<std::pair<const char*, Graph>> graphs;
  graphs.emplace_back("fat-tree-4", make_fat_tree(4).graph);
  graphs.emplace_back("fat-tree-8", make_fat_tree(8).graph);
  graphs.emplace_back("mesh-6x6", make_mesh({6, 6}).graph);
  graphs.emplace_back("torus-6x6", make_torus({6, 6}).graph);
  graphs.emplace_back("hypercube-4", make_hypercube(4));
  graphs.emplace_back("butterfly-3", make_butterfly(3).graph);
  graphs.emplace_back("bcube-3-2", make_bcube(3, 2).graph);
  graphs.emplace_back("random-regular-40-3", make_random_regular(40, 3, 5));
  for (const auto& [name, graph] : graphs) {
    const HopTable table(graph);
    BoundaryTally tally;
    for (NodeId d = 0; d < graph.node_count(); ++d) {
      const auto shortest = shortest_route_counts(graph, d, 8);
      for (NodeId s = 0; s < graph.node_count(); ++s) {
        probe_boundary(table, s, d, shortest[s], tally, name);
        if (HasFatalFailure()) return;
      }
    }
    EXPECT_GT(tally.dag, 0u) << name;
    EXPECT_GT(tally.yen, 0u) << name;
  }
}

TEST(RwaOracle, DagAndYenAgreeWithTheReferenceOnLazyRows) {
  // A 33×33 mesh passes HopTable::kMaxNodes, so its searches read the
  // lazily extended row of their own reverse BFS. Random pairs mostly
  // have more than 8 shortest routes (the DAG serves every k); pairs at
  // most three hops apart have one to three, so Yen runs past them.
  const Graph graph = make_mesh({33, 33}).graph;
  const HopTable table(graph);
  ASSERT_FALSE(table.keeps_rows());
  Rng rng(0x1a2e);
  BoundaryTally tally;
  for (int probe = 0; probe < 60; ++probe) {
    const auto source = static_cast<NodeId>(rng.next_below(graph.node_count()));
    auto destination = static_cast<NodeId>(rng.next_below(graph.node_count()));
    if (probe % 2 != 0) {
      const auto dist = bfs_distances(graph, source);
      std::vector<NodeId> near;
      for (NodeId v = 0; v < graph.node_count(); ++v)
        if (dist[v] >= 1 && dist[v] <= 3) near.push_back(v);
      destination = near[rng.next_below(near.size())];
    }
    const auto shortest = shortest_route_counts(graph, destination, 8);
    probe_boundary(table, source, destination, shortest[source], tally,
                   "mesh-33x33");
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(tally.dag, 0u);
  EXPECT_GT(tally.yen, 0u);
}

TEST(RwaOracle, FatTreeSpursByHand) {
  // Radix 4: cores 0–3; pod p has aggregation switches 4+4p, 5+4p and
  // edge switches 6+4p, 7+4p; hosts 20–35, two per edge switch.
  // Aggregation switch i of a pod uplinks to cores 2i and 2i+1.
  const FatTreeTopology topo = make_fat_tree(4);
  const NodeId a = topo.hosts[0], b = topo.hosts[4];
  ASSERT_EQ(a, 20u);
  ASSERT_EQ(b, 24u);
  const HopTable table(topo.graph);
  // Inter-pod: four routes of six links (2 aggregation × 2 core
  // choices). Route 2 is route 1's spur at aggregation switch 4 (core 1
  // instead of core 0). The host spur is dead: a host has one uplink, and
  // route 1 bans it. Route 3 is route 1's edge-switch spur: with 6→4
  // banned it climbs through the other aggregation switch, 5, at the
  // same length. Route 4 is route 3's spur at 5. Route 5 is longer.
  const auto routes = k_shortest_routes(table, a, b, 8);
  ASSERT_EQ(routes.size(), 8u);
  const std::vector<std::vector<NodeId>> shortest{
      {20, 6, 4, 0, 8, 10, 24},
      {20, 6, 4, 1, 8, 10, 24},
      {20, 6, 5, 2, 9, 10, 24},
      {20, 6, 5, 3, 9, 10, 24}};
  EXPECT_TRUE(std::equal(shortest.begin(), shortest.end(), routes.begin()));
  for (std::size_t r = 4; r < routes.size(); ++r)
    EXPECT_EQ(routes[r].size(), 9u) << "route " << r;
  EXPECT_EQ(routes, brute_force_routes(topo.graph, a, b, 8, 8));

  // Same edge switch: host, edge switch, host is the only route. Every
  // spur is cut: the source host's one uplink is banned, and the edge
  // switch's one link to the destination host is banned.
  const NodeId c = topo.hosts[1];
  const auto same_edge = k_shortest_routes(table, a, c, 8);
  ASSERT_EQ(same_edge.size(), 1u);
  EXPECT_EQ(same_edge.front(), (std::vector<NodeId>{a, 6, c}));
}

TEST(RwaOracle, ValiantMatchesAnIndependentRecomputationOnAFatTree) {
  // Valiant's route is oblivious. For request uid u, waypoint attempt a
  // draws CounterRng(seed, round).below(node_count, u, 9 + a) (slot 9 =
  // kSlotRwaWaypoint in rwa/strategy.cpp, 32 attempts), skips the
  // request's endpoints, and takes the first waypoint whose shortest legs
  // meet only at the waypoint; otherwise the direct shortest route. The
  // wavelength is the lowest one free on that route, given the requests
  // accepted before it. Recomputed here from the exhaustive oracle over
  // host permutations of a radix-4 fat tree.
  const FatTreeTopology topo = make_fat_tree(4);
  const Graph& graph = topo.graph;
  const HopTable routes(graph);
  RwaConfig config;
  config.bandwidth = 2;
  config.seed = 0x7a1ULL;
  const auto strategy = make_strategy(StrategyKind::Valiant);
  // The exhaustive first route, found by deepening the hop bound: an
  // unbounded enumeration of a fat tree's simple paths is too slow.
  const auto oracle_route = [&](NodeId from, NodeId to) {
    for (std::size_t hops = 0; hops < graph.node_count(); ++hops) {
      auto routes = brute_force_routes(graph, from, to, 1, hops);
      if (!routes.empty()) return routes;
    }
    return std::vector<std::vector<NodeId>>{};
  };
  std::uint64_t via_waypoint = 0, direct = 0, blocked = 0;
  for (const std::uint32_t round : {1u, 3u}) {
    const CounterRng draws(config.seed, round);
    for (std::uint64_t perm = 0; perm < 3; ++perm) {
      std::vector<NodeId> destinations = topo.hosts;
      Rng perm_rng = Rng::stream(0x7a11, perm);
      perm_rng.shuffle(destinations);
      strategy->begin(routes, config, round);
      std::vector<char> busy(
          static_cast<std::size_t>(graph.link_count()) * config.bandwidth, 0);
      for (std::uint32_t uid = 0; uid < topo.hosts.size(); ++uid) {
        const NodeId s = topo.hosts[uid], d = destinations[uid];
        const auto shortest = oracle_route(s, d);
        ASSERT_EQ(shortest.size(), 1u);
        std::vector<NodeId> expected = shortest.front();
        bool waypoint_found = false;
        for (std::uint32_t attempt = 0; s != d && attempt < 32; ++attempt) {
          const auto mid = static_cast<NodeId>(
              draws.below(graph.node_count(), uid, 9 + attempt));
          if (mid == s || mid == d) continue;
          const auto leg1 = oracle_route(s, mid);
          const auto leg2 = oracle_route(mid, d);
          if (leg1.empty() || leg2.empty()) continue;
          std::vector<NodeId> joined = leg1.front();
          joined.insert(joined.end(), leg2.front().begin() + 1,
                        leg2.front().end());
          std::vector<NodeId> sorted = joined;
          std::sort(sorted.begin(), sorted.end());
          if (std::adjacent_find(sorted.begin(), sorted.end()) !=
              sorted.end())
            continue;  // the legs share more than the waypoint
          expected = std::move(joined);
          waypoint_found = true;
          break;
        }

        std::vector<EdgeId> links;
        for (std::size_t i = 0; i + 1 < expected.size(); ++i)
          links.push_back(graph.find_link(expected[i], expected[i + 1]));
        std::optional<Wavelength> lambda;
        for (Wavelength l = 0; l < config.bandwidth && !lambda; ++l)
          if (std::none_of(links.begin(), links.end(), [&](EdgeId e) {
                return busy[static_cast<std::size_t>(e) * config.bandwidth +
                            l];
              }))
            lambda = l;

        const RwaDecision decision = strategy->assign(RwaRequest{s, d}, uid);
        ASSERT_EQ(decision.accepted, lambda.has_value())
            << "round " << round << " perm " << perm << " uid " << uid;
        if (!lambda) {
          ++blocked;
          continue;
        }
        ASSERT_EQ(decision.routes.size(), 1u);
        const auto actual = decision.routes.front().links();
        EXPECT_TRUE(std::equal(actual.begin(), actual.end(), links.begin(),
                               links.end()))
            << "round " << round << " perm " << perm << " uid " << uid;
        EXPECT_EQ(decision.lambdas.front(), *lambda)
            << "round " << round << " perm " << perm << " uid " << uid;
        for (EdgeId e : links)
          busy[static_cast<std::size_t>(e) * config.bandwidth + *lambda] = 1;
        ++(waypoint_found ? via_waypoint : direct);
      }
    }
  }
  // Every branch is exercised: waypoint routes, the direct fallback
  // (same-edge-switch pairs can never split), and blocking.
  EXPECT_GT(via_waypoint, 0u);
  EXPECT_GT(direct, 0u);
  EXPECT_GT(blocked, 0u);
}

TEST(RwaOracle, SourceEqualsDestinationIsTheZeroLengthRoute) {
  const Graph graph = make_chain(4);
  const auto routes = k_shortest_routes(HopTable(graph), 2, 2, 5);
  ASSERT_EQ(routes.size(), 1u);
  EXPECT_EQ(routes.front(), std::vector<NodeId>{2});
}

/// A ladder of `levels` rungs: the main route 0 → 1 → … → levels → T
/// (T = levels + 1) and, from each main node j < levels, a branch of
/// fresh nodes back to T of the same total length. Branch nodes are
/// numbered after the main ones, so the main route is the lex-least
/// shortest route, and the branch leaving at j is lex-smaller than every
/// branch leaving before j: every route has the same length and the
/// later a route leaves the main route, the earlier it comes.
Graph make_ladder(NodeId levels) {
  const NodeId target = levels + 1;
  NodeId nodes = target + 1;
  for (NodeId j = 0; j < levels; ++j) nodes += levels - j;
  GraphBuilder builder(nodes, "ladder");
  for (NodeId j = 0; j + 1 < target; ++j) builder.add_edge(j, j + 1);
  builder.add_edge(levels, target);
  NodeId next = target + 1;
  for (NodeId j = 0; j < levels; ++j) {
    NodeId at = j;
    for (NodeId step = 0; step < levels - j; ++step) {
      builder.add_edge(at, next);
      at = next++;
    }
    builder.add_edge(at, target);
  }
  return std::move(builder).build();
}

TEST(RwaOracle, CapKeepsASpurRouteOfExactlyTheKthCandidateLength) {
  // On ladder(k) every route has length k + 1. After the main route,
  // the spurs at main nodes 0 … k-2 fill the pool with k - 1 candidates,
  // so the cap L* is k + 1 when the spur at main node k-1 runs: its root
  // plus its unbanned hops is exactly L*, and its route (along the
  // branch leaving at k-1) is lex-smaller than every pooled candidate.
  // It must be accepted second; a cap of < L* would skip it.
  for (const std::uint32_t k : {2u, 3u, 4u}) {
    const Graph graph = make_ladder(k);
    const HopTable table(graph);
    const NodeId target = k + 1;
    const auto routes = k_shortest_routes(table, 0, target, k);
    ASSERT_EQ(routes.size(), k) << "k=" << k;
    std::vector<NodeId> main_route(target + 1);
    for (NodeId v = 0; v <= target; ++v) main_route[v] = v;
    EXPECT_EQ(routes[0], main_route) << "k=" << k;
    // The second route leaves the main route at its last rung.
    EXPECT_EQ(routes[1][k - 1], k - 1) << "k=" << k;
    EXPECT_NE(routes[1][k], k) << "k=" << k;
    for (const auto& route : routes)
      EXPECT_EQ(route.size(), target + 1u) << "k=" << k;
    EXPECT_EQ(routes, brute_force_routes(graph, 0, target, k)) << "k=" << k;
  }
}

/// 0 → 1 → 2 → 5, with a second way on from 0 (3, 4, 6) and from 1 (7,
/// 8), each one link longer.
Graph make_cap_fallback() {
  GraphBuilder builder(9, "cap-fallback");
  for (const auto& [u, v] :
       {std::pair<NodeId, NodeId>{0, 1}, {1, 2}, {2, 5}, {0, 3}, {3, 4},
        {4, 6}, {6, 5}, {1, 7}, {7, 8}, {8, 5}})
    builder.add_edge(u, v);
  return std::move(builder).build();
}

TEST(RwaOracle, CapKeepsAFallbackRouteOfExactlyTheKthCandidateLength) {
  // 0 → 1 → 2 → 5 is the only route of three links. Both routes of four
  // leave it where its bans cut every three-link way on: at 0 (via 3, 4,
  // 6) and at 1 (via 7, 8). The spur at 0 runs first and pools
  // [0 3 4 6 5], so the cap is 4 when the spur at 1 runs: its DAG walk
  // fails, its root plus one more than its unbanned hops is exactly 4,
  // and its banned BFS must reach depth 4 - 1 = 3 to find [0 1 7 8 5],
  // the lex-smaller of the two. A strict cap, or a BFS stopped one short,
  // drops the k-th route for the other.
  const Graph graph = make_cap_fallback();
  const HopTable table(graph);
  const std::vector<std::vector<NodeId>> expected{
      {0, 1, 2, 5}, {0, 1, 7, 8, 5}, {0, 3, 4, 6, 5}};
  for (const std::uint32_t k : {2u, 3u}) {
    const auto routes = k_shortest_routes(table, 0, 5, k);
    EXPECT_EQ(routes, std::vector<std::vector<NodeId>>(
                          expected.begin(), expected.begin() + k))
        << "k=" << k;
    EXPECT_EQ(routes, brute_force_routes(graph, 0, 5, k)) << "k=" << k;
  }
}

/// Row d of `table` against a fresh BFS from d (links come in both
/// directions, so a BFS from d gives every node's hops to d).
void expect_rows_match_bfs(const HopTable& table, const char* name) {
  const Graph& graph = table.graph();
  for (NodeId d = 0; d < graph.node_count(); ++d) {
    const auto dist = bfs_distances(graph, d);
    const auto row = table.row(d);
    ASSERT_EQ(row.size(), graph.node_count()) << name;
    for (NodeId v = 0; v < graph.node_count(); ++v)
      ASSERT_EQ(row[v], dist[v] == kUnreachable
                            ? HopTable::kNoRoute
                            : static_cast<std::uint16_t>(dist[v]))
          << name << " row " << d << " node " << v;
  }
}

TEST(HopTable, EveryRowIsAFreshReverseBfs) {
  // Every destination of the oracle graphs: the four structured ones, a
  // chain, the ladders, and the generated ones (disconnected pairs
  // included, which read kNoRoute). Each row is read twice: filled, then
  // published.
  std::vector<std::pair<const char*, Graph>> graphs;
  graphs.emplace_back("fat-tree-4", make_fat_tree(4).graph);
  graphs.emplace_back("mesh-4x4", make_mesh({4, 4}).graph);
  graphs.emplace_back("hypercube-4", make_hypercube(4));
  graphs.emplace_back("ring-8", make_ring(8));
  graphs.emplace_back("chain-6", make_chain(6));
  graphs.emplace_back("ladder-4", make_ladder(4));
  for (std::uint64_t g = 0; g < 50; ++g) {
    Rng rng = Rng::stream(0xac1e, g);
    const NodeId nodes = static_cast<NodeId>(2 + rng.next_below(7));
    GraphBuilder builder(nodes);
    for (NodeId u = 0; u < nodes; ++u)
      for (NodeId v = u + 1; v < nodes; ++v)
        if (rng.next_bernoulli(0.4)) builder.add_edge(u, v);
    Graph graph = std::move(builder).build();
    graphs.emplace_back("generated", std::move(graph));
  }
  for (const auto& [name, graph] : graphs) {
    const HopTable table(graph);
    ASSERT_TRUE(table.keeps_rows()) << name;
    for (int pass = 0; pass < 2; ++pass) {
      expect_rows_match_bfs(table, name);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(HopTable, ANewGraphNeverInheritsADeadGraphsRows) {
  // A is ring-8; B has the same node and link counts but other links
  // (the ring visited in steps of 3). The registry keys tables by owner
  // identity and holds A only weakly, so once A dies B gets a table of
  // its own, wherever B is allocated.
  const Graph ring = make_ring(8);
  GraphBuilder stepped_builder(8, "ring-step-3");
  for (NodeId i = 0; i < 8; ++i)
    stepped_builder.add_edge(i * 3 % 8, (i + 1) * 3 % 8);
  const Graph stepped = std::move(stepped_builder).build();
  ASSERT_EQ(stepped.link_count(), ring.link_count());

  auto a = std::make_shared<const Graph>(ring);
  std::shared_ptr<const HopTable> table_a = shared_hop_table(a);
  EXPECT_EQ(shared_hop_table(a), table_a) << "one owner, one table";
  expect_rows_match_bfs(*table_a, "A");
  const auto a_routes = k_shortest_routes(*table_a, 0, 3, 2);
  table_a.reset();
  a.reset();

  const auto b = std::make_shared<const Graph>(stepped);
  const std::shared_ptr<const HopTable> table_b = shared_hop_table(b);
  ASSERT_EQ(&table_b->graph(), b.get());
  expect_rows_match_bfs(*table_b, "B");
  const auto b_routes = k_shortest_routes(*table_b, 0, 3, 2);
  EXPECT_EQ(b_routes, brute_force_routes(*b, 0, 3, 2));
  EXPECT_NE(a_routes, b_routes);

  // Aliasing pointers share one owner but point at different graphs.
  const auto both = std::make_shared<const std::pair<Graph, Graph>>(
      make_ring(8), make_chain(8));
  const std::shared_ptr<const Graph> first(both, &both->first);
  const std::shared_ptr<const Graph> second(both, &both->second);
  EXPECT_EQ(&shared_hop_table(first)->graph(), first.get());
  EXPECT_EQ(&shared_hop_table(second)->graph(), second.get());
}

std::uint64_t counter_value(const std::string& name) {
  for (const auto& snapshot : obs::counters())
    if (snapshot.name == name) return snapshot.value;
  return 0;
}

TEST(HopTable, ConcurrentFillsPublishIdenticalRows) {
  // Four pool threads read every row of fresh tables at once, each from
  // a different starting destination so that fills race, and each
  // copies what it got. Every copy must be the BFS row, whether the
  // thread filled and published it, read it published, or lost the race
  // and filled its own. `rwa.rows.filled` counts only the published
  // fills, so it grows by one per destination whatever the race did.
  const FatTreeTopology topo = make_fat_tree(8);
  const Graph& graph = topo.graph;
  const NodeId nodes = graph.node_count();
  std::vector<std::uint16_t> expected;
  for (NodeId d = 0; d < nodes; ++d)
    for (const std::uint32_t hops : bfs_distances(graph, d))
      expected.push_back(static_cast<std::uint16_t>(hops));
  constexpr std::size_t kThreads = 4;
  ThreadPool pool(kThreads);
  for (int round = 0; round < 8; ++round) {
    const HopTable table(graph);
    const std::uint64_t filled_before = counter_value("rwa.rows.filled");
    std::vector<std::vector<std::uint16_t>> seen(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t)
      pool.submit([&, t] {
        seen[t].resize(expected.size());
        for (NodeId i = 0; i < nodes; ++i) {
          const NodeId d = static_cast<NodeId>((i + t * 7) % nodes);
          const auto row = table.row(d);
          std::copy(row.begin(), row.end(),
                    seen[t].begin() + std::size_t{d} * nodes);
        }
      });
    pool.wait_idle();
    for (std::size_t t = 0; t < kThreads; ++t)
      ASSERT_EQ(seen[t], expected) << "round " << round << " thread " << t;
    if (obs::enabled()) {
      EXPECT_EQ(counter_value("rwa.rows.filled") - filled_before, nodes)
          << "round " << round;
    }
  }
}

TEST(HopTable, AGraphPastTheNodeLimitFindsTheSameRoutes) {
  // Hypercube-4 with a chain of 1,100 nodes hanging off node 0 passes
  // the node limit, so its table keeps no rows and every search computes
  // its own. A chain is a dead end for simple paths, so the routes
  // between cube nodes are the plain cube's, and a route from the chain's
  // far end is the chain followed by a route from node 0.
  const Graph cube = make_hypercube(4);
  constexpr NodeId kChain = 1100;
  GraphBuilder padded_builder(cube.node_count() + kChain,
                              "hypercube-4+chain");
  for (NodeId u = 0; u < cube.node_count(); ++u)
    for (const EdgeId e : cube.out_links(u))
      if (u < cube.target(e)) padded_builder.add_edge(u, cube.target(e));
  padded_builder.add_edge(0, cube.node_count());
  for (NodeId c = cube.node_count(); c + 1 < padded_builder.node_count(); ++c)
    padded_builder.add_edge(c, c + 1);
  const Graph padded = std::move(padded_builder).build();
  const HopTable small(cube), large(padded);
  ASSERT_TRUE(small.keeps_rows());
  ASSERT_GT(padded.node_count(), HopTable::kMaxNodes);
  ASSERT_FALSE(large.keeps_rows());
  EXPECT_TRUE(large.row(0).empty());

  for (NodeId s = 0; s < cube.node_count(); ++s)
    for (NodeId d = 0; d < cube.node_count(); ++d) {
      for (const std::uint32_t k : {1u, 2u, 4u, 8u})
        ASSERT_EQ(k_shortest_routes(large, s, d, k),
                  k_shortest_routes(small, s, d, k))
            << s << "→" << d << " k=" << k;
      ASSERT_EQ(shortest_route(large, s, d), shortest_route(small, s, d));
    }

  const NodeId far = padded.node_count() - 1;
  std::vector<NodeId> chain;
  for (NodeId c = far; c >= cube.node_count(); --c) chain.push_back(c);
  for (const NodeId d : {NodeId{0}, NodeId{5}, NodeId{15}}) {
    auto expected = k_shortest_routes(small, 0, d, 4);
    for (auto& route : expected) route.insert(route.begin(), chain.begin(),
                                               chain.end());
    EXPECT_EQ(k_shortest_routes(large, far, d, 4), expected) << "→" << d;
  }
}

TEST(HopTable, SearchCountersTallySpursFallbacksCapsAndRowFills) {
  if (!obs::enabled()) GTEST_SKIP() << "observation is switched off";
  const auto counters = [] {
    return std::vector<std::uint64_t>{
        counter_value("rwa.ksp.spurs"), counter_value("rwa.ksp.fallbacks"),
        counter_value("rwa.ksp.capped"), counter_value("rwa.rows.filled"),
        counter_value("rwa.ksp.dag_routes")};
  };
  // The fallback case above at k = 2: one shortest route, so the DAG
  // serves nothing past it; three spurs (at 0, 1 and 2), of which 0 and 1
  // run the banned BFS and 2 is a dead spur node; nothing is capped; one
  // row filled. A second search fills nothing.
  const Graph graph = make_cap_fallback();
  const HopTable table(graph);
  auto before = counters();
  (void)k_shortest_routes(table, 0, 5, 2);
  auto after = counters();
  EXPECT_EQ(after[0] - before[0], 3u);
  EXPECT_EQ(after[1] - before[1], 2u);
  EXPECT_EQ(after[2] - before[2], 0u);
  EXPECT_EQ(after[3] - before[3], 1u);
  EXPECT_EQ(after[4] - before[4], 0u);
  before = after;
  (void)shortest_route(table, 3, 5);
  after = counters();
  EXPECT_EQ(after, before);

  // The radix-4 fat tree. A cross-pod host pair has four shortest
  // routes, so at k = 3 the DAG serves routes 2 and 3 and nothing spurs.
  const FatTreeTopology topo = make_fat_tree(4);
  const HopTable fat(topo.graph);
  before = counters();
  EXPECT_EQ(k_shortest_routes(fat, topo.hosts[0], topo.hosts[4], 3).size(),
            3u);
  after = counters();
  EXPECT_EQ(after[4] - before[4], 2u);
  EXPECT_EQ(after[0] - before[0], 0u);

  // All host pairs at k = 3: one row per host, and the DAG serves routes.
  // At k = 5, above every pair's shortest-route count, Yen runs: spurs
  // fall back to the banned BFS and the cap ends some of them.
  before = counters();
  for (const NodeId s : topo.hosts)
    for (const NodeId d : topo.hosts) (void)k_shortest_routes(fat, s, d, 3);
  after = counters();
  EXPECT_EQ(after[3] - before[3], topo.hosts.size() - 1);
  EXPECT_GT(after[4] - before[4], 0u);
  before = counters();
  for (const NodeId s : topo.hosts)
    for (const NodeId d : topo.hosts) (void)k_shortest_routes(fat, s, d, 5);
  after = counters();
  EXPECT_EQ(after[3] - before[3], 0u);
  EXPECT_GT(after[1] - before[1], 0u);
  EXPECT_GT(after[2] - before[2], 0u);
  EXPECT_GE(after[0] - before[0],
            (after[1] - before[1]) + (after[2] - before[2]));
}

}  // namespace
}  // namespace opto::rwa
