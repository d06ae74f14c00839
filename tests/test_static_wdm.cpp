// Static-WDM baseline (§1.2) on rwa::run_strategy_schedule: collision-free
// batched routing, the colour counts of classic shapes, and a
// differential check against the plain conflict-graph greedy.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "opto/graph/bcube.hpp"
#include "opto/graph/butterfly.hpp"
#include "opto/graph/fattree.hpp"
#include "opto/graph/mesh.hpp"
#include "opto/paths/butterfly_paths.hpp"
#include "opto/paths/lowerbound_structures.hpp"
#include "opto/paths/workloads.hpp"
#include "opto/rwa/schedule.hpp"
#include "opto/sim/simulator.hpp"

namespace opto {
namespace {

using rwa::run_static_rwa;
using rwa::StaticRwaResult;

/// Reference: the plain conflict graph (two members conflict when they
/// share a directed link) coloured first-fit in Welsh-Powell order
/// (degree descending, ties by id); colour c ships in batch c / B on
/// wavelength c % B, one simulated pass per batch.
StaticRwaResult reference_static_rwa(const PathCollection& collection,
                                     std::uint16_t bandwidth,
                                     std::uint32_t worm_length) {
  const PathId n = collection.size();
  std::vector<std::set<EdgeId>> links(n);
  for (PathId p = 0; p < n; ++p) {
    const auto member = collection.path(p).links();
    links[p] = {member.begin(), member.end()};
  }
  std::vector<std::vector<PathId>> adjacency(n);
  for (PathId a = 0; a < n; ++a)
    for (PathId b = a + 1; b < n; ++b)
      if (std::any_of(links[a].begin(), links[a].end(),
                      [&](EdgeId e) { return links[b].count(e) > 0; })) {
        adjacency[a].push_back(b);
        adjacency[b].push_back(a);
      }
  std::vector<PathId> order(n);
  std::iota(order.begin(), order.end(), PathId{0});
  std::stable_sort(order.begin(), order.end(), [&](PathId a, PathId b) {
    return adjacency[a].size() > adjacency[b].size();
  });

  StaticRwaResult result;
  std::vector<std::uint32_t> color(n, ~0u);
  for (const PathId p : order) {
    std::vector<char> used(result.colors + 1, 0);
    for (const PathId q : adjacency[p])
      if (color[q] < used.size()) used[color[q]] = 1;
    std::uint32_t c = 0;
    while (used[c]) ++c;
    color[p] = c;
    result.colors = std::max(result.colors, c + 1);
  }

  result.batches = (result.colors + bandwidth - 1) / bandwidth;
  result.success = true;
  SimConfig sim_config;
  sim_config.bandwidth = bandwidth;
  Simulator sim(collection, sim_config);
  for (std::uint32_t batch = 0; batch < result.batches; ++batch) {
    std::vector<LaunchSpec> specs;
    for (PathId p = 0; p < n; ++p) {
      if (color[p] / bandwidth != batch) continue;
      LaunchSpec spec;
      spec.path = p;
      spec.wavelength = static_cast<Wavelength>(color[p] % bandwidth);
      spec.priority = p;
      spec.length = worm_length;
      specs.push_back(spec);
    }
    const PassResult pass = sim.run(specs);
    result.success &= pass.metrics.delivered == specs.size();
    result.total_time += pass.metrics.makespan + 1;
    result.worm_steps += pass.metrics.worm_steps;
  }
  return result;
}

/// The baseline equals the reference field by field and keeps the
/// colour bounds: edge congestion ≤ colours ≤ C̃ + 1.
void expect_matches_reference(const PathCollection& collection,
                              std::uint16_t bandwidth,
                              std::uint32_t worm_length) {
  SCOPED_TRACE("n=" + std::to_string(collection.size()) +
               " B=" + std::to_string(bandwidth));
  const StaticRwaResult got = run_static_rwa(collection, bandwidth,
                                             worm_length);
  const StaticRwaResult want =
      reference_static_rwa(collection, bandwidth, worm_length);
  EXPECT_TRUE(got.success);
  EXPECT_TRUE(want.success);
  EXPECT_EQ(got.colors, want.colors);
  EXPECT_EQ(got.batches, want.batches);
  EXPECT_EQ(got.total_time, want.total_time);
  EXPECT_EQ(got.worm_steps, want.worm_steps);
  EXPECT_GE(got.colors, collection.edge_congestion());
  EXPECT_LE(got.colors, collection.path_congestion() + 1);
}

TEST(StaticWdm, BundleBatches) {
  const auto collection = make_bundle_collection(1, 8, 10);
  const auto result = run_static_rwa(collection, /*bandwidth=*/2,
                                     /*worm_length=*/4);
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.colors, 8u);
  EXPECT_EQ(result.batches, 4u);
  // Each batch: 2 worms, disjoint wavelengths, makespan = D + L - 2 = 12.
  EXPECT_EQ(result.total_time, 4 * (12 + 1));
}

TEST(StaticWdm, SingleBatchWhenBandwidthCovers) {
  const auto collection = make_bundle_collection(1, 4, 6);
  const auto result = run_static_rwa(collection, /*bandwidth=*/8,
                                     /*worm_length=*/2);
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.batches, 1u);
}

TEST(StaticWdm, MeshRandomFunction) {
  auto topo = std::make_shared<MeshTopology>(make_mesh({6, 6}));
  Rng rng(5);
  const auto collection = mesh_random_function(topo, rng);
  const auto result = run_static_rwa(collection, 2, 4);
  EXPECT_TRUE(result.success);
  EXPECT_GE(result.colors, collection.edge_congestion());
  EXPECT_LE(result.colors, collection.path_congestion() + 1);
}

TEST(StaticWdm, TrianglesAreTrivialForStaticAssignment) {
  // The serve-first livelock case is a non-event for RWA: 3 colors, done.
  const auto collection = make_triangle_collection(10, 10, 4);
  const auto result = run_static_rwa(collection, 3, 4);
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.batches, 1u);
}

TEST(StaticWdm, WormStepsAccountAllLinks) {
  const auto collection = make_bundle_collection(2, 3, 5);
  const auto result = run_static_rwa(collection, 1, 2);
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.worm_steps, 6u * 5u);  // every path fully traversed
}

TEST(StaticWdm, MatchesConflictGraphGreedyOnBenchInstances) {
  // E10's two workloads at its representative seed.
  {
    auto topo = std::make_shared<MeshTopology>(make_mesh({8, 8}));
    Rng rng(4242);
    const auto collection = mesh_random_function(topo, rng);
    for (const std::uint16_t bandwidth : {1, 2, 4, 8})
      expect_matches_reference(collection, bandwidth, 4);
  }
  {
    auto topo = std::make_shared<ButterflyTopology>(make_butterfly(6));
    Rng rng(4242);
    const auto collection = butterfly_random_q_function(topo, 4, rng);
    for (const std::uint16_t bandwidth : {1, 2, 4, 8})
      expect_matches_reference(collection, bandwidth, 4);
  }
  // E19's data-center permutations at the same seed.
  for (const auto& graph :
       {std::make_shared<const Graph>(std::move(make_fat_tree(4).graph)),
        std::make_shared<const Graph>(std::move(make_bcube(4, 2).graph))}) {
    Rng rng(4242);
    const auto collection = bfs_random_permutation(graph, rng);
    for (const std::uint16_t bandwidth : {1, 2, 4})
      expect_matches_reference(collection, bandwidth, 4);
  }
}

TEST(StaticWdm, MatchesConflictGraphGreedyOnStructures) {
  for (const std::uint16_t bandwidth : {1, 2, 3}) {
    expect_matches_reference(make_bundle_collection(2, 3, 5), bandwidth, 2);
    expect_matches_reference(make_bundle_collection(1, 8, 10), bandwidth, 4);
    expect_matches_reference(make_triangle_collection(10, 10, 4), bandwidth,
                             4);
    expect_matches_reference(make_staircase_collection(1, 6, 12, 4),
                             bandwidth, 2);
    expect_matches_reference(make_staircase_collection(3, 5, 10, 3),
                             bandwidth, 3);
  }
}

TEST(StaticWdm, MatchesConflictGraphGreedyAcrossSeeds) {
  auto topo = std::make_shared<MeshTopology>(make_mesh({6, 6}));
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(seed);
    const auto collection = mesh_random_function(topo, rng);
    for (const std::uint16_t bandwidth : {1, 2, 3})
      expect_matches_reference(collection, bandwidth, 1 + seed % 4);
  }
}

}  // namespace
}  // namespace opto
