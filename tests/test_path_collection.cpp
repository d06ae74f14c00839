// Collection metrics — in particular the paper's path congestion C̃
// (paths sharing a directed link), which differs from edge congestion —
// checked against a brute-force pairwise oracle, plus the lifetime of the
// collection's C̃ memo (what construction does to it is checked by
// allocation count in test_alloc_budget), the link arena and its append
// checks, and builder output against node-list construction.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "opto/graph/butterfly.hpp"
#include "opto/graph/mesh.hpp"
#include "opto/graph/random_regular.hpp"
#include "opto/par/parallel_for.hpp"
#include "opto/paths/bfs_shortest.hpp"
#include "opto/paths/lightpath_layout.hpp"
#include "opto/paths/lowerbound_structures.hpp"
#include "opto/paths/path_collection.hpp"
#include "opto/paths/tree_layout.hpp"
#include "opto/paths/workloads.hpp"
#include "opto/rng/rng.hpp"
#include "opto/sim/simulator.hpp"

namespace opto {
namespace {

std::shared_ptr<Graph> chain(NodeId n) {
  auto graph = std::make_shared<Graph>(n);
  for (NodeId u = 0; u + 1 < n; ++u) graph->add_edge(u, u + 1);
  return graph;
}

TEST(PathCollection, EmptyStats) {
  const auto graph = chain(3);
  PathCollection collection(graph);
  EXPECT_TRUE(collection.empty());
  EXPECT_EQ(collection.dilation(), 0u);
  EXPECT_EQ(collection.edge_congestion(), 0u);
  EXPECT_EQ(collection.path_congestion(), 0u);
}

TEST(PathCollection, BundleCongestion) {
  const auto graph = chain(4);
  PathCollection collection(graph);
  const std::vector<NodeId> nodes{0, 1, 2, 3};
  for (int i = 0; i < 5; ++i)
    collection.add(Path::from_nodes(*graph, nodes));
  EXPECT_EQ(collection.size(), 5u);
  EXPECT_EQ(collection.dilation(), 3u);
  EXPECT_EQ(collection.edge_congestion(), 5u);
  // Each path shares links with the 4 other copies.
  EXPECT_EQ(collection.path_congestion(), 4u);
}

TEST(PathCollection, OppositeDirectionsDoNotCount) {
  // Two paths traversing the same undirected edge in opposite directions
  // use different optical links and never collide.
  const auto graph = chain(3);
  PathCollection collection(graph);
  collection.add(Path::from_nodes(*graph, std::vector<NodeId>{0, 1, 2}));
  collection.add(Path::from_nodes(*graph, std::vector<NodeId>{2, 1, 0}));
  EXPECT_EQ(collection.edge_congestion(), 1u);
  EXPECT_EQ(collection.path_congestion(), 0u);
}

TEST(PathCollection, PathCongestionCountsDistinctSharers) {
  // Star of paths all crossing one middle link, plus one disjoint path.
  auto graph = std::make_shared<Graph>(8);
  graph->add_edge(0, 1);  // shared link 0->1
  graph->add_edge(1, 2);
  graph->add_edge(1, 3);
  graph->add_edge(4, 0);
  graph->add_edge(5, 0);
  graph->add_edge(6, 7);
  PathCollection collection(graph);
  collection.add(Path::from_nodes(*graph, std::vector<NodeId>{4, 0, 1, 2}));
  collection.add(Path::from_nodes(*graph, std::vector<NodeId>{5, 0, 1, 3}));
  collection.add(Path::from_nodes(*graph, std::vector<NodeId>{0, 1}));
  collection.add(Path::from_nodes(*graph, std::vector<NodeId>{6, 7}));

  const auto per_path = collection.path_congestions();
  EXPECT_EQ(per_path, (std::vector<std::uint32_t>{2, 2, 2, 0}));
  EXPECT_EQ(collection.path_congestion(), 2u);
  EXPECT_EQ(collection.edge_congestion(), 3u);
}

TEST(PathCollection, SharersCountedOncePerPair) {
  // Two paths sharing two links still count each other once.
  const auto graph = chain(5);
  PathCollection collection(graph);
  collection.add(Path::from_nodes(*graph, std::vector<NodeId>{0, 1, 2, 3}));
  collection.add(Path::from_nodes(*graph, std::vector<NodeId>{1, 2, 3, 4}));
  EXPECT_EQ(collection.path_congestion(), 1u);
}

TEST(PathCollection, StatsAggregate) {
  const auto graph = chain(4);
  PathCollection collection(graph);
  collection.add(Path::from_nodes(*graph, std::vector<NodeId>{0, 1, 2, 3}));
  collection.add(Path::from_nodes(*graph, std::vector<NodeId>{1, 2}));
  const auto stats = collection.stats();
  EXPECT_EQ(stats.size, 2u);
  EXPECT_EQ(stats.dilation, 3u);
  EXPECT_EQ(stats.edge_congestion, 2u);
  EXPECT_EQ(stats.path_congestion, 1u);
  EXPECT_DOUBLE_EQ(stats.avg_length, 2.0);
}

TEST(PathCollection, SampledCongestionLowerBoundsExact) {
  const auto graph = chain(12);
  PathCollection collection(graph);
  // Staggered overlapping windows give varied per-path congestion.
  for (NodeId start = 0; start + 4 < 12; ++start) {
    std::vector<NodeId> nodes;
    for (NodeId u = start; u <= start + 4; ++u) nodes.push_back(u);
    collection.add(Path::from_nodes(*graph, nodes));
  }
  const std::uint32_t exact = collection.path_congestion();
  const std::uint32_t sampled = collection.path_congestion_sampled(3, 7);
  EXPECT_LE(sampled, exact);
  EXPECT_GT(sampled, 0u);
  // Enough probes recover the exact value w.h.p. on this small instance;
  // asking for >= size probes falls back to the exact computation.
  EXPECT_EQ(collection.path_congestion_sampled(1000, 7), exact);
}

TEST(PathCollection, SampledCongestionEmptyAndDeterministic) {
  const auto graph = chain(3);
  PathCollection empty_collection(graph);
  EXPECT_EQ(empty_collection.path_congestion_sampled(5, 1), 0u);

  PathCollection collection(graph);
  for (int i = 0; i < 6; ++i)
    collection.add(Path::from_nodes(*graph, std::vector<NodeId>{0, 1, 2}));
  EXPECT_EQ(collection.path_congestion_sampled(2, 9),
            collection.path_congestion_sampled(2, 9));
  EXPECT_EQ(collection.path_congestion_sampled(2, 9), 5u);  // bundle: all equal
}

TEST(PathCollection, FromNodeLists) {
  const auto graph = chain(4);
  const std::vector<std::vector<NodeId>> lists{{0, 1, 2}, {2, 3}};
  const auto collection = collection_from_node_lists(graph, lists);
  EXPECT_EQ(collection.size(), 2u);
  EXPECT_EQ(collection.path(1).source(), 2u);
}

TEST(PathArena, OffsetsAndViewsAgree) {
  const auto graph = chain(6);
  const std::vector<std::vector<NodeId>> lists = {
      {0, 1, 2}, {3}, {2, 3, 4, 5}, {1, 2}};
  const PathCollection c = collection_from_node_lists(graph, lists);
  std::size_t total = 0;
  for (PathId p = 0; p < c.size(); ++p) {
    const PathView path = c.path(p);
    EXPECT_EQ(c.offset(p), total);
    EXPECT_EQ(path.links().data(), c.arena().data() + c.offset(p));
    EXPECT_EQ(path.nodes(*graph), lists[p]);
    total += path.length();
  }
  EXPECT_EQ(c.arena().size(), total);
}

TEST(PathArena, AddCopiesAMemberOfTheSameCollection) {
  // Growing the arena moves it; a view into it must still copy right.
  const auto graph = chain(4);
  PathCollection c = collection_from_node_lists(
      graph, std::vector<std::vector<NodeId>>{{0, 1, 2, 3}, {2, 1}});
  for (int i = 0; i < 40; ++i) c.add(c.path(static_cast<PathId>(i % 2)));
  for (PathId p = 2; p < c.size(); ++p) EXPECT_EQ(c.path(p), c.path(p % 2));
  EXPECT_EQ(c.path_congestion(), 20u);
}

TEST(PathArena, ReversedSwapsEndpointsAndReversesLinks) {
  const auto graph = chain(5);
  const PathCollection c = collection_from_node_lists(
      graph, std::vector<std::vector<NodeId>>{{0, 1, 2}, {4}, {4, 3, 2, 1}});
  const PathCollection rev = c.reversed();
  ASSERT_EQ(rev.size(), c.size());
  for (PathId p = 0; p < c.size(); ++p)
    EXPECT_EQ(rev.path(p), PathView(Path(c.path(p)).reversed()));
}

TEST(PathArenaDeath, AppendKeepsEveryCheck) {
  const auto graph = chain(4);
  PathCollection c(graph);
  EXPECT_DEATH(c.add_nodes(std::vector<NodeId>{0, 2}),
               "consecutive nodes not adjacent");
  EXPECT_DEATH(c.add_nodes(std::vector<NodeId>{0, 1, 0}),
               "path revisits a node");
  EXPECT_DEATH(c.add_walk(1,
                          [](auto to) {
                            to(2);
                            to(1);
                          }),
               "path revisits a node");
  EXPECT_DEATH(Path::from_links(*graph, {0, 4}), "links are not consecutive");
  const EdgeId outside[] = {graph->link_count()};
  EXPECT_DEATH(c.add(PathView(0, 1, outside)), "link outside graph");
  EXPECT_TRUE(c.empty());
}

// --- C̃ oracle -------------------------------------------------------------

/// Brute-force oracle: the congestion of member i of `ids` is the number
/// of other members whose directed-link set meets its own.
std::vector<std::uint32_t> brute_force_congestions(
    const PathCollection& c, const std::vector<PathId>& ids) {
  std::vector<std::set<EdgeId>> links(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i)
    for (const EdgeId link : c.path(ids[i]).links()) links[i].insert(link);
  std::vector<std::uint32_t> result(ids.size(), 0);
  for (std::size_t i = 0; i < ids.size(); ++i)
    for (std::size_t j = 0; j < ids.size(); ++j) {
      if (i == j) continue;
      const bool shares = std::any_of(
          links[i].begin(), links[i].end(),
          [&](EdgeId link) { return links[j].count(link) != 0; });
      if (shares) ++result[i];
    }
  return result;
}

std::vector<PathId> all_ids(const PathCollection& c) {
  std::vector<PathId> ids(c.size());
  for (PathId id = 0; id < c.size(); ++id) ids[id] = id;
  return ids;
}

std::uint32_t max_value(const std::vector<std::uint32_t>& values) {
  return values.empty() ? 0 : *std::max_element(values.begin(), values.end());
}

/// Case `index` of the oracle sweep; four families in rotation:
/// dimension-order paths on small meshes and tori (random functions, so
/// self-requests give zero-length paths), BFS paths on random-regular
/// graphs, duplicated paths, and explicit zero-length paths mixed in.
PathCollection oracle_case(std::uint32_t index) {
  Rng rng(0x5eed0000u + index);
  switch (index % 4) {
    case 0: {
      const auto side = static_cast<std::uint32_t>(3 + rng.next_below(4));
      const bool wrap = rng.next_bernoulli(0.5);
      auto topo = std::make_shared<const MeshTopology>(
          wrap ? make_torus({side, side}) : make_mesh({side, side}));
      return mesh_random_function(topo, rng);
    }
    case 1: {
      const auto n = static_cast<std::uint32_t>(8 + 2 * rng.next_below(8));
      auto graph = std::make_shared<const Graph>(
          make_random_regular(n, 3, rng.next_u64()));
      return bfs_random_function(graph, rng);
    }
    case 2: {
      auto topo = std::make_shared<const MeshTopology>(make_mesh({4, 5}));
      PathCollection c = mesh_random_function(topo, rng);
      const std::uint32_t original = c.size();
      const auto copies = static_cast<std::uint32_t>(1 + rng.next_below(10));
      for (std::uint32_t k = 0; k < copies; ++k)
        c.add(c.path(static_cast<PathId>(rng.next_below(original))));
      return c;
    }
    default: {
      auto topo = std::make_shared<const MeshTopology>(make_mesh({5, 5}));
      std::vector<std::pair<NodeId, NodeId>> requests;
      const auto count = static_cast<std::uint32_t>(1 + rng.next_below(30));
      for (std::uint32_t k = 0; k < count; ++k) {
        const auto source = static_cast<NodeId>(rng.next_below(25));
        const auto destination = rng.next_bernoulli(0.3)
                                     ? source
                                     : static_cast<NodeId>(rng.next_below(25));
        requests.emplace_back(source, destination);
      }
      return mesh_collection(topo, requests);
    }
  }
}

TEST(PathCongestionOracle, MatchesBruteForceOnGeneratedCollections) {
  for (std::uint32_t index = 0; index < 200; ++index) {
    SCOPED_TRACE("case " + std::to_string(index));
    const PathCollection c = oracle_case(index);
    const std::vector<std::uint32_t> expected =
        brute_force_congestions(c, all_ids(c));
    EXPECT_EQ(c.path_congestions(), expected);
    EXPECT_EQ(c.path_congestion(), max_value(expected));
    EXPECT_EQ(c.path_congestion(), max_value(expected));  // cached read
    EXPECT_EQ(c.stats().path_congestion, max_value(expected));

    // The sampled estimate is the max over the ids its seed draws.
    for (const std::uint32_t samples : {1u, 3u, c.size() / 2 + 1}) {
      const std::uint64_t seed = 77 + index;
      Rng draws(seed);
      std::uint32_t best = 0;
      if (samples >= c.size()) {
        best = max_value(expected);
      } else {
        for (std::uint32_t k = 0; k < samples; ++k)
          best = std::max(best, expected[draws.next_below(c.size())]);
      }
      EXPECT_EQ(c.path_congestion_sampled(samples, seed), best);
    }
  }
}

TEST(PathCongestionOracle, SubsetMatchesBruteForceAndCopiedSubset) {
  for (std::uint32_t index = 0; index < 200; ++index) {
    SCOPED_TRACE("case " + std::to_string(index));
    const PathCollection c = oracle_case(index);
    Rng rng(0xab5e7000u + index);
    std::vector<PathId> ids;
    for (PathId id = 0; id < c.size(); ++id)
      if (rng.next_bernoulli(0.6)) ids.push_back(id);
    // Order must not matter.
    for (std::size_t i = ids.size(); i > 1; --i)
      std::swap(ids[i - 1], ids[rng.next_below(i)]);

    PathCollection copied(c.graph_ptr());
    for (PathId id : ids) copied.add(c.path(id));
    const std::uint32_t expected = max_value(brute_force_congestions(c, ids));
    EXPECT_EQ(c.path_congestion_of(ids), expected);
    EXPECT_EQ(copied.path_congestion(), expected);
  }
  const PathCollection c = oracle_case(0);
  EXPECT_EQ(c.path_congestion_of({}), 0u);
}

// --- C̃ cache lifetime -------------------------------------------------------

PathCollection bundle(const std::shared_ptr<Graph>& graph, int copies) {
  PathCollection c(graph);
  for (int i = 0; i < copies; ++i)
    c.add(Path::from_nodes(*graph, std::vector<NodeId>{0, 1, 2}));
  return c;
}

TEST(PathCongestionCache, AddInvalidates) {
  const auto graph = chain(3);
  PathCollection c = bundle(graph, 2);
  EXPECT_EQ(c.path_congestion(), 1u);
  c.add(Path::from_nodes(*graph, std::vector<NodeId>{1, 2}));
  EXPECT_EQ(c.path_congestion(), 2u);
  EXPECT_EQ(c.stats().path_congestion, 2u);
}

TEST(PathCongestionCache, CopyAndMoveAssignInvalidate) {
  const auto graph = chain(3);
  PathCollection target = bundle(graph, 2);
  ASSERT_EQ(target.path_congestion(), 1u);
  const PathCollection five = bundle(graph, 5);
  target = five;
  EXPECT_EQ(target.path_congestion(), 4u);

  PathCollection seven = bundle(graph, 7);
  target = std::move(seven);
  EXPECT_EQ(target.path_congestion(), 6u);

  PathCollection empty(graph);
  target = std::move(empty);
  EXPECT_EQ(target.path_congestion(), 0u);
}

TEST(PathCongestionCache, ConcurrentFirstReadsAgree) {
  // Parallel trials may share one collection: the first reads race to
  // fill the cache and must all see the one value.
  const PathCollection c = oracle_case(1);
  const std::uint32_t expected =
      max_value(brute_force_congestions(c, all_ids(c)));
  std::vector<std::uint32_t> seen(4, 0);
  std::vector<std::thread> readers;
  for (std::size_t t = 0; t < seen.size(); ++t)
    readers.emplace_back([&c, &seen, t] { seen[t] = c.path_congestion(); });
  for (std::thread& reader : readers) reader.join();
  for (std::uint32_t value : seen) EXPECT_EQ(value, expected);
}

// --- exact C̃ across block edges ----------------------------------------------

/// The naive pairwise definition: member i's congestion is the number of
/// members j != i whose directed links meet its own (sorted-merge test).
std::vector<std::uint32_t> pairwise_congestions(const PathCollection& c,
                                                std::span<const PathId> ids) {
  std::vector<std::vector<EdgeId>> links(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const auto span = c.path(ids[i]).links();
    links[i].assign(span.begin(), span.end());
    std::sort(links[i].begin(), links[i].end());
  }
  const auto meet = [](const std::vector<EdgeId>& a,
                       const std::vector<EdgeId>& b) {
    auto x = a.begin();
    auto y = b.begin();
    while (x != a.end() && y != b.end()) {
      if (*x == *y) return true;
      if (*x < *y) ++x; else ++y;
    }
    return false;
  };
  std::vector<std::uint32_t> result(ids.size(), 0);
  for (std::size_t i = 0; i < ids.size(); ++i)
    for (std::size_t j = i + 1; j < ids.size(); ++j)
      if (meet(links[i], links[j])) {
        ++result[i];
        ++result[j];
      }
  return result;
}

/// n members on a 9×9 torus: random dimension-order paths, with about
/// one in eight a zero-length self-request and one in eight a duplicate
/// of an earlier member.
PathCollection sized_case(std::uint32_t n, std::uint64_t seed) {
  auto topo = std::make_shared<const MeshTopology>(make_torus({9, 9}));
  const NodeId nodes = topo->graph.node_count();
  Rng rng(seed);
  std::vector<std::pair<NodeId, NodeId>> requests;
  for (std::uint32_t k = 0; k < n; ++k) {
    const auto source = static_cast<NodeId>(rng.next_below(nodes));
    const std::uint64_t kind = rng.next_below(8);
    if (kind == 0)
      requests.emplace_back(source, source);
    else if (kind == 1 && !requests.empty())
      requests.push_back(requests[rng.next_below(requests.size())]);
    else
      requests.emplace_back(source,
                            static_cast<NodeId>(rng.next_below(nodes)));
  }
  return mesh_collection(topo, requests);
}

TEST(PathCongestionOracle, ExactAcrossBlockEdges) {
  for (const std::uint32_t n : {0u, 1u, 63u, 64u, 65u, 255u, 256u, 257u,
                                1000u}) {
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      SCOPED_TRACE("n " + std::to_string(n) + " seed " + std::to_string(seed));
      const PathCollection c = sized_case(n, seed);
      ASSERT_EQ(c.size(), n);
      const std::vector<std::uint32_t> expected =
          pairwise_congestions(c, all_ids(c));
      EXPECT_EQ(c.path_congestions(), expected);
      EXPECT_EQ(c.path_congestion(), max_value(expected));
      EXPECT_EQ(c.path_congestion_sampled(n, seed), max_value(expected));
      EXPECT_EQ(c.path_congestion_sampled(n + 5, seed), max_value(expected));

      // A sub-multiset with repeated ids: each repeat is one more copy.
      Rng rng(seed * 31 + n);
      std::vector<PathId> ids;
      for (std::uint32_t k = 0; n > 0 && k < n + n / 3; ++k)
        ids.push_back(static_cast<PathId>(rng.next_below(n)));
      EXPECT_EQ(c.path_congestion_of(ids),
                max_value(pairwise_congestions(c, ids)));
    }
  }
}

// --- builders write the arena node-list construction would --------------

/// `c` against collection_from_node_lists over `routes`: the same links
/// and the same endpoints, member for member.
void expect_same_as_node_lists(const PathCollection& c,
                               const std::vector<std::vector<NodeId>>& routes) {
  const PathCollection expected =
      collection_from_node_lists(c.graph_ptr(), routes);
  ASSERT_EQ(c.size(), expected.size());
  for (PathId p = 0; p < c.size(); ++p) EXPECT_EQ(c.path(p), expected.path(p));
  EXPECT_TRUE(std::ranges::equal(c.arena(), expected.arena()));
}

/// Every member's node route.
std::vector<std::vector<NodeId>> node_routes(const PathCollection& c) {
  std::vector<std::vector<NodeId>> routes;
  for (const PathView p : c.paths()) routes.push_back(p.nodes(c.graph()));
  return routes;
}

/// Dimension-order route computed in coordinate space.
std::vector<NodeId> coordinate_route(const MeshTopology& topo, NodeId source,
                                     NodeId destination) {
  auto at = topo.coords_of(source);
  const auto goal = topo.coords_of(destination);
  std::vector<NodeId> route{source};
  for (std::uint32_t d = 0; d < topo.dimensions(); ++d) {
    const std::uint32_t side = topo.sides[d];
    while (at[d] != goal[d]) {
      const std::uint32_t forward = (goal[d] + side - at[d]) % side;
      const bool up = topo.wrap ? forward <= side - forward : goal[d] > at[d];
      at[d] = up ? (at[d] + 1) % side : (at[d] + side - 1) % side;
      route.push_back(topo.node_at(at));
    }
  }
  return route;
}

TEST(PathArena, DimensionOrderBuilderMatchesCoordinateRoutes) {
  for (const bool wrap : {false, true}) {
    for (const std::vector<std::uint32_t>& sides :
         {std::vector<std::uint32_t>{7, 5}, {4, 3, 5}, {6}}) {
      auto topo = std::make_shared<const MeshTopology>(
          wrap ? make_torus(sides) : make_mesh(sides));
      Rng rng(sides.size() * 2 + wrap);
      const auto requests = random_q_function_requests(
          topo->graph.node_count(), 2, rng);
      std::vector<std::vector<NodeId>> routes;
      for (const auto& [s, d] : requests)
        routes.push_back(coordinate_route(*topo, s, d));
      expect_same_as_node_lists(mesh_collection(topo, requests), routes);
    }
  }
}

TEST(PathArena, BuildersMatchNodeListConstruction) {
  Rng rng(5);
  auto cube = std::make_shared<const Graph>(make_random_regular(20, 3, 9));
  const PathCollection bfs = bfs_random_function(cube, rng);
  std::vector<std::vector<NodeId>> bfs_routes;
  for (const PathView p : bfs.paths())
    bfs_routes.push_back(
        bfs_shortest_path(*cube, p.source(), p.destination()).nodes(*cube));
  expect_same_as_node_lists(bfs, bfs_routes);

  std::vector<PathCollection> built;
  built.push_back(butterfly_random_q_function(
      std::make_shared<const ButterflyTopology>(make_butterfly(4)), 2, rng));
  built.push_back(make_staircase_collection(2, 4, 6, 4));
  built.push_back(make_bundle_collection(2, 3, 4));
  built.push_back(make_triangle_collection(2, 6, 4));
  built.push_back(tree_layout_lightpaths(
      make_tree_layout({0, 0, 0, 1, 1, 2, 3, 3, 5, 8}, 2)));
  built.push_back(layout_lightpaths(make_chain_layout(17, 2)));
  built.push_back(mesh_layout_lightpaths(make_mesh_layout(5, 2)));
  built.push_back(ring_layout_lightpaths(make_ring_layout(16, 2)));
  for (std::size_t i = 0; i < built.size(); ++i) {
    SCOPED_TRACE("builder " + std::to_string(i));
    EXPECT_GT(built[i].size(), 0u);
    expect_same_as_node_lists(built[i], node_routes(built[i]));
  }
}

// --- one const collection shared by pool threads -----------------------------

TEST(PathArena, PoolThreadsShareOneConstCollection) {
  Rng rng(3);
  const PathCollection c = mesh_random_function(
      std::make_shared<const MeshTopology>(make_mesh({12, 12})), rng);
  const std::uint32_t expected = max_value(pairwise_congestions(c, all_ids(c)));
  std::vector<LaunchSpec> specs;
  for (PathId id = 0; id < c.size(); ++id) {
    LaunchSpec spec;
    spec.path = id;
    spec.start_time = static_cast<SimTime>(id % 7);
    spec.length = 3;
    specs.push_back(spec);
  }
  const auto delivered = [&c, &specs] {
    Simulator sim(c, SimConfig{});
    return sim.run(specs).metrics.delivered;
  };
  const auto reference = delivered();

  ThreadPool pool(4);
  constexpr std::size_t kTasks = 32;
  std::vector<std::uint32_t> congestion(kTasks, 0);
  std::vector<decltype(delivered())> seen(kTasks, 0);
  parallel_for(
      0, kTasks,
      [&](std::size_t i) {
        congestion[i] = c.path_congestion();
        seen[i] = delivered();
      },
      &pool);
  for (std::size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(congestion[i], expected) << "task " << i;
    EXPECT_EQ(seen[i], reference) << "task " << i;
  }
}

}  // namespace
}  // namespace opto
