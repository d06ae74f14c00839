// Collection metrics — in particular the paper's path congestion C̃
// (paths sharing a directed link), which differs from edge congestion —
// checked against a brute-force pairwise oracle, plus the lifetime of the
// collection's cached C̃ (what construction does to it is checked by
// allocation count in test_alloc_budget).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "opto/graph/mesh.hpp"
#include "opto/graph/random_regular.hpp"
#include "opto/paths/bfs_shortest.hpp"
#include "opto/paths/path_collection.hpp"
#include "opto/paths/workloads.hpp"
#include "opto/rng/rng.hpp"

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

}  // namespace
}  // namespace opto
