// Collection metrics — in particular the paper's path congestion C̃
// (paths sharing a directed link), which differs from edge congestion —
// checked against a brute-force pairwise oracle, and the bound U that the
// exact search prunes with (U ≥ C̃ per member, U = the shared-run count,
// and a case where the U-leader is not the C̃-leader), plus the lifetime
// of the collection's C̃ memo (what construction does to it is checked by
// allocation count in test_alloc_budget), the link arena and its append
// checks, and builder output against node-list construction.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "opto/graph/butterfly.hpp"
#include "opto/graph/expander.hpp"
#include "opto/graph/hypercube.hpp"
#include "opto/graph/mesh.hpp"
#include "opto/graph/random_regular.hpp"
#include "opto/par/parallel_for.hpp"
#include "opto/paths/bfs_shortest.hpp"
#include "opto/paths/butterfly_paths.hpp"
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
  GraphBuilder builder(n);
  for (NodeId u = 0; u + 1 < n; ++u) builder.add_edge(u, u + 1);
  return std::make_shared<Graph>(std::move(builder).build());
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
  GraphBuilder builder(8);
  builder.add_edge(0, 1);  // shared link 0->1
  builder.add_edge(1, 2);
  builder.add_edge(1, 3);
  builder.add_edge(4, 0);
  builder.add_edge(5, 0);
  builder.add_edge(6, 7);
  auto graph = std::make_shared<Graph>(std::move(builder).build());
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
  // A view is walked link by link, like Path::from_links. Chain links:
  // 0 is 0→1, 1 is 1→0, 2 is 1→2, 4 is 2→3.
  const EdgeId gap[] = {0, 4}, back[] = {0, 1}, one[] = {0}, two[] = {0, 2};
  EXPECT_DEATH(c.add(PathView(0, 3, gap)), "links are not consecutive");
  EXPECT_DEATH(c.add(PathView(0, 0, back)), "path revisits a node");
  EXPECT_DEATH(c.add(PathView(1, 2, two)), "does not start at its source");
  EXPECT_DEATH(c.add(PathView(0, 2, one)), "does not end at its destination");
  EXPECT_DEATH(c.add(PathView(0, 1, {})), "does not end at its destination");
  c.add(PathView(0, 2, two));
  c.add(PathView(3, 3, {}));
  EXPECT_EQ(c.size(), 2u);
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

// --- the pruning bound U ----------------------------------------------------

/// Each member's maximal runs of consecutive links shared with every other
/// member, summed over the others: the value path_congestion_bounds()
/// reports when every turn is followed (graphs of degree ≤ 8).
std::vector<std::uint32_t> shared_runs(const PathCollection& c) {
  std::vector<std::map<EdgeId, std::uint32_t>> position(c.size());
  for (PathId q = 0; q < c.size(); ++q)
    for (std::uint32_t i = 0; i < c.path(q).length(); ++i)
      position[q][c.path(q).link(i)] = i;
  std::vector<std::uint32_t> runs(c.size(), 0);
  for (PathId p = 0; p < c.size(); ++p)
    for (PathId q = 0; q < c.size(); ++q) {
      if (q == p) continue;
      bool was_on = false;
      std::uint32_t at = 0;
      for (const EdgeId link : c.path(p).links()) {
        const auto it = position[q].find(link);
        const bool on = it != position[q].end();
        if (on && !(was_on && it->second == at + 1)) ++runs[p];
        if (on) at = it->second;
        was_on = on;
      }
    }
  return runs;
}

/// For every member, U ≥ its exact count (and U is the shared-run count
/// where every turn is followed); and every C̃ entry point agrees with
/// the brute-force maximum.
void expect_bound_holds(const PathCollection& c) {
  const std::vector<std::uint32_t> exact = pairwise_congestions(c, all_ids(c));
  const std::vector<std::uint32_t> bounds = c.path_congestion_bounds();
  const std::vector<std::uint32_t> runs = shared_runs(c);
  ASSERT_EQ(bounds.size(), c.size());
  const bool every_turn = c.empty() || c.graph().max_degree() <= 8;
  for (PathId p = 0; p < c.size(); ++p) {
    EXPECT_GE(bounds[p], exact[p]) << "member " << p;
    if (every_turn)
      EXPECT_EQ(bounds[p], runs[p]) << "member " << p;
    else
      EXPECT_GE(bounds[p], runs[p]) << "member " << p;
  }
  EXPECT_EQ(c.path_congestions(), exact);
  EXPECT_EQ(c.path_congestion_of(all_ids(c)), max_value(exact));
  EXPECT_EQ(c.path_congestion(), max_value(exact));
}

/// A random function on `graph` along BFS shortest paths.
PathCollection bfs_case(Graph graph, std::uint64_t seed) {
  Rng rng(seed);
  return bfs_random_function(std::make_shared<const Graph>(std::move(graph)),
                             rng);
}

TEST(PathCongestionBound, HoldsOnGeneratedCollections) {
  for (std::uint32_t index = 0; index < 200; ++index) {
    SCOPED_TRACE("case " + std::to_string(index));
    expect_bound_holds(oracle_case(index));
  }
}

TEST(PathCongestionBound, HoldsOnExperimentInstances) {
  std::vector<std::pair<std::string, PathCollection>> cases;
  cases.reserve(16);
  Rng rng(7);
  {  // E1: a butterfly input→output permutation
    auto topo = std::make_shared<const ButterflyTopology>(make_butterfly(6));
    const std::vector<std::uint32_t> perm = rng.permutation(topo->rows());
    std::vector<std::pair<std::uint32_t, std::uint32_t>> rows;
    for (std::uint32_t r = 0; r < perm.size(); ++r) rows.emplace_back(r, perm[r]);
    cases.emplace_back("E1 butterfly-6 permutation",
                       butterfly_io_collection(topo, rows));
  }
  cases.emplace_back("E2 staircase", make_staircase_collection(3, 6, 14, 4));
  {  // E3: triangles and bundles in one graph
    StructureBuilder builder;
    for (int s = 0; s < 3; ++s) {
      builder.add_triangle(10, 4);
      builder.add_bundle(4, 6);
    }
    cases.emplace_back("E3 triangles+bundles", std::move(builder).build());
  }
  cases.emplace_back("E4/E5 triangles", make_triangle_collection(4, 10, 4));
  cases.emplace_back("E6 torus-8", bfs_case(make_torus({8, 8}).graph, 61));
  cases.emplace_back("E6 hypercube-6", bfs_case(make_hypercube(6), 62));
  cases.emplace_back("E6 wrap-butterfly-4",
                     bfs_case(make_wrap_butterfly(4).graph, 63));
  cases.emplace_back("E6 circulant-64", bfs_case(make_circulant(64, {1, 8}), 64));
  cases.emplace_back("E6 margulis-8", bfs_case(make_margulis_expander(8), 65));
  // Degree 9: turns into a node's ninth out-link are not followed.
  cases.emplace_back("hypercube-9", bfs_case(make_hypercube(9), 66));
  cases.emplace_back("E7 mesh-16",
                     mesh_random_function(std::make_shared<const MeshTopology>(
                                              make_mesh({16, 16})),
                                          rng));
  cases.emplace_back(
      "E8 butterfly-6 q=4",
      butterfly_random_q_function(
          std::make_shared<const ButterflyTopology>(make_butterfly(6)), 4, rng));
  for (const auto& [name, c] : cases) {
    SCOPED_TRACE(name);
    EXPECT_GT(c.size(), 0u);
    expect_bound_holds(c);
  }
}

TEST(PathCongestionBound, ExactOnTheLowerBoundStructures) {
  // The Fig. 5/6 structures and the bundle: no member shares two separate
  // runs with another, so U is every member's exact count.
  const std::vector<PathCollection> structures = {
      make_staircase_collection(4, 6, 14, 4),
      make_staircase_collection(1, 8, 26, 8),
      make_triangle_collection(8, 18, 8), make_triangle_collection(1, 10, 4),
      make_bundle_collection(4, 5, 10)};
  for (std::size_t i = 0; i < structures.size(); ++i) {
    SCOPED_TRACE("structure " + std::to_string(i));
    expect_bound_holds(structures[i]);
    EXPECT_EQ(structures[i].path_congestion_bounds(),
              structures[i].path_congestions());
  }
}

TEST(PathCongestionBound, LeaderByBoundIsNotTheLeaderByCount) {
  // P = a→b→c→d→e meets each of two copies of Q = a→b→x→d→e in two
  // separate runs, so U(P) = 4 while C̃(P) = 2. Four copies of s→t each
  // have U = C̃ = 3: the search must verify past its first member.
  enum : NodeId { a, b, c, d, e, x, s, t };
  GraphBuilder builder(8);
  for (const auto& [u, v] : std::vector<std::pair<NodeId, NodeId>>{
           {a, b}, {b, c}, {c, d}, {d, e}, {b, x}, {x, d}, {s, t}})
    builder.add_edge(u, v);
  const auto graph = std::make_shared<const Graph>(std::move(builder).build());
  const std::vector<std::vector<NodeId>> routes = {
      {a, b, c, d, e}, {a, b, x, d, e}, {a, b, x, d, e},
      {s, t},          {s, t},          {s, t},
      {s, t}};
  const PathCollection paths = collection_from_node_lists(graph, routes);
  EXPECT_EQ(paths.path_congestion_bounds(),
            (std::vector<std::uint32_t>{4, 3, 3, 3, 3, 3, 3}));
  EXPECT_EQ(paths.path_congestions(),
            (std::vector<std::uint32_t>{2, 2, 2, 3, 3, 3, 3}));
  expect_bound_holds(paths);
  EXPECT_EQ(paths.path_congestion(), 3u);
  EXPECT_EQ(paths.path_congestion_of(std::vector<PathId>{0, 1, 2, 3, 4, 5, 6}),
            3u);
  // Sub-multisets: a repeated id is one more copy; only its own position
  // is skipped.
  EXPECT_EQ(paths.path_congestion_of(std::vector<PathId>{0, 1, 3, 4}), 1u);
  EXPECT_EQ(paths.path_congestion_of(std::vector<PathId>{0, 0}), 1u);
  EXPECT_EQ(paths.path_congestion_of(std::vector<PathId>{3, 3, 3}), 2u);
  EXPECT_EQ(paths.path_congestion_of(std::vector<PathId>{0, 1, 1, 0, 3}), 3u);
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
