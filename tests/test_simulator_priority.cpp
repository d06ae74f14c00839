// Priority-rule engine scenarios: truncation, remnant propagation, and the
// acyclicity that Claim 2.6 relies on.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "opto/paths/lowerbound_structures.hpp"
#include "opto/paths/path_collection.hpp"
#include "opto/sim/simulator.hpp"

namespace opto {
namespace {

std::shared_ptr<Graph> make_chain(NodeId nodes) {
  GraphBuilder builder(nodes, "chain");
  for (NodeId u = 0; u + 1 < nodes; ++u) builder.add_edge(u, u + 1);
  return std::make_shared<Graph>(std::move(builder).build());
}

LaunchSpec spec(PathId path, SimTime start, Wavelength wl, std::uint32_t len,
                std::uint32_t priority) {
  LaunchSpec s;
  s.path = path;
  s.start_time = start;
  s.wavelength = wl;
  s.length = len;
  s.priority = priority;
  return s;
}

SimConfig priority_config() {
  SimConfig config;
  config.rule = ContentionRule::Priority;
  return config;
}

TEST(SimulatorPriority, LowPriorityEntrantEliminated) {
  const auto graph = make_chain(5);
  PathCollection collection(graph);
  const std::vector<NodeId> nodes{0, 1, 2, 3, 4};
  collection.add(Path::from_nodes(*graph, nodes));
  collection.add(Path::from_nodes(*graph, nodes));

  Simulator sim(collection, priority_config());
  // Occupant w0 (rank 2) vs entrant w1 (rank 1): occupant wins.
  const auto result = sim.run(
      std::vector<LaunchSpec>{spec(0, 0, 0, 4, 2), spec(1, 1, 0, 4, 1)});
  EXPECT_TRUE(result.worms[0].delivered_intact());
  EXPECT_EQ(result.worms[1].status, WormStatus::Killed);
  EXPECT_EQ(result.metrics.truncated, 0u);
}

TEST(SimulatorPriority, HighPriorityEntrantTruncatesOccupant) {
  const auto graph = make_chain(5);
  PathCollection collection(graph);
  const std::vector<NodeId> nodes{0, 1, 2, 3, 4};
  collection.add(Path::from_nodes(*graph, nodes));
  collection.add(Path::from_nodes(*graph, nodes));

  Simulator sim(collection, priority_config());
  // w0 (rank 1) enters link 0 at t=0; w1 (rank 2) arrives at t=2 and cuts
  // it: remnant = 2 flits keep going, w0 fails, w1 delivers.
  const auto result = sim.run(
      std::vector<LaunchSpec>{spec(0, 0, 0, 4, 1), spec(1, 2, 0, 4, 2)});
  EXPECT_TRUE(result.worms[1].delivered_intact());
  EXPECT_EQ(result.worms[0].status, WormStatus::Delivered);
  EXPECT_TRUE(result.worms[0].truncated);
  EXPECT_FALSE(result.worms[0].delivered_intact());
  EXPECT_EQ(result.metrics.truncated, 1u);
  EXPECT_EQ(result.metrics.truncated_arrivals, 1u);
  EXPECT_EQ(result.metrics.delivered, 1u);
  // Remnant: head entered last link (index 3) at t=3, 2 flits remain, so
  // it finishes at 3 + 2 - 1 = 4 instead of 3 + 4 - 1 = 6.
  EXPECT_EQ(result.worms[0].finish_time, 4);
}

TEST(SimulatorPriority, RemnantStillBlocksDownstream) {
  // w0 truncated at link 0 by w1; its remnant is ahead on link 1 and must
  // still eliminate w2 (lower priority than the remnant) arriving there.
  GraphBuilder builder(6, "remnant");
  builder.add_edge(0, 1);
  builder.add_edge(1, 2);
  builder.add_edge(2, 3);
  builder.add_edge(4, 1);  // w2 joins at node 1
  builder.add_edge(2, 5);
  auto graph = std::make_shared<Graph>(std::move(builder).build());
  PathCollection collection(graph);
  collection.add(Path::from_nodes(*graph, std::vector<NodeId>{0, 1, 2, 3}));
  collection.add(Path::from_nodes(*graph, std::vector<NodeId>{0, 1, 2, 3}));
  collection.add(Path::from_nodes(*graph, std::vector<NodeId>{4, 1, 2, 5}));

  Simulator sim(collection, priority_config());
  // w0 rank 5 starts t=0 (L=6). w1 rank 9 starts t=3, truncates w0 at
  // link 0 -> remnant 3 flits. w0's remnant occupies link 1->2 during
  // [1, 3]. w2 rank 1 arrives at 1->2 at t=3 -> eliminated by remnant.
  const auto result = sim.run(std::vector<LaunchSpec>{
      spec(0, 0, 0, 6, 5), spec(1, 3, 0, 6, 9), spec(2, 2, 0, 6, 1)});
  EXPECT_TRUE(result.worms[0].truncated);
  EXPECT_TRUE(result.worms[1].delivered_intact());
  EXPECT_EQ(result.worms[2].status, WormStatus::Killed);
  EXPECT_EQ(result.worms[2].blocked_by, 0u);
}

TEST(SimulatorPriority, RemnantWindowShrinks) {
  // Like the previous test, but the cutter w1 diverges at node 1 and w2
  // arrives at 1->2 right after the shortened remnant passed: without the
  // truncation w0 would occupy 1->2 through t=6; the cut at t=3 frees it
  // from t=4 on.
  GraphBuilder builder(7, "remnant2");
  builder.add_edge(0, 1);
  builder.add_edge(1, 2);
  builder.add_edge(2, 3);
  builder.add_edge(4, 1);
  builder.add_edge(2, 5);
  builder.add_edge(1, 6);  // w1's divergence
  auto graph = std::make_shared<Graph>(std::move(builder).build());
  PathCollection collection(graph);
  collection.add(Path::from_nodes(*graph, std::vector<NodeId>{0, 1, 2, 3}));
  collection.add(Path::from_nodes(*graph, std::vector<NodeId>{0, 1, 6}));
  collection.add(Path::from_nodes(*graph, std::vector<NodeId>{4, 1, 2, 5}));

  Simulator sim(collection, priority_config());
  const auto result = sim.run(std::vector<LaunchSpec>{
      spec(0, 0, 0, 6, 5), spec(1, 3, 0, 6, 9), spec(2, 3, 0, 6, 1)});
  EXPECT_TRUE(result.worms[0].truncated);
  EXPECT_TRUE(result.worms[1].delivered_intact());
  EXPECT_TRUE(result.worms[2].delivered_intact());
}

TEST(SimulatorPriority, HighestRankAlwaysSurvives) {
  // In any contention pattern, the globally top-ranked worm can never be
  // killed or truncated.
  const auto collection = make_bundle_collection(1, 8, 10);
  Simulator sim(collection, priority_config());
  std::vector<LaunchSpec> specs;
  for (PathId id = 0; id < 8; ++id)
    specs.push_back(spec(id, id % 3, 0, 4, id + 1));
  const auto result = sim.run(specs);
  EXPECT_TRUE(result.worms[7].delivered_intact());
}

TEST(SimulatorPriority, SimultaneousEntrantsHighestWins) {
  const auto collection = make_bundle_collection(1, 3, 6);
  Simulator sim(collection, priority_config());
  const auto result = sim.run(std::vector<LaunchSpec>{
      spec(0, 0, 0, 3, 2), spec(1, 0, 0, 3, 7), spec(2, 0, 0, 3, 4)});
  EXPECT_EQ(result.worms[0].status, WormStatus::Killed);
  EXPECT_TRUE(result.worms[1].delivered_intact());
  EXPECT_EQ(result.worms[2].status, WormStatus::Killed);
  EXPECT_EQ(result.worms[0].blocked_by, 1u);
  EXPECT_EQ(result.worms[2].blocked_by, 1u);
}

TEST(SimulatorPriority, TriangleDeadlockBrokenByPriorities) {
  // Under serve-first, three equal-delay worms on a triangle structure
  // eliminate each other cyclically. Under the priority rule the top rank
  // must always get through (no blocking cycles — Claim 2.6).
  const std::uint32_t L = 4;
  const auto collection = make_triangle_collection(1, 8, L);

  SimConfig serve_first;
  Simulator sf(collection, serve_first);
  std::vector<LaunchSpec> specs;
  for (PathId id = 0; id < 3; ++id) specs.push_back(spec(id, 0, 0, L, id + 1));
  const auto sf_result = sf.run(specs);
  EXPECT_EQ(sf_result.metrics.delivered, 0u);
  EXPECT_EQ(sf_result.metrics.killed, 3u);

  Simulator prio(collection, priority_config());
  const auto prio_result = prio.run(specs);
  EXPECT_GE(prio_result.metrics.delivered, 1u);
  EXPECT_TRUE(prio_result.worms[2].delivered_intact());
}

TEST(SimulatorPriority, DoubleTruncationKeepsShortestRemnant) {
  // w0 is cut twice: first far downstream, then upstream. The delivered
  // remnant is bounded by the earliest cut's survivors.
  const auto graph = make_chain(10);
  PathCollection collection(graph);
  const std::vector<NodeId> full{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  collection.add(Path::from_nodes(*graph, full));
  // w1 joins deep (cuts at link 6), w2 joins early (cuts at link 1).
  collection.add(
      Path::from_nodes(*graph, std::vector<NodeId>{6, 7, 8, 9}));
  collection.add(
      Path::from_nodes(*graph, std::vector<NodeId>{1, 2, 3, 4}));

  // Give the joiners their own entry edges so they can reach the chain.
  // (Paths start on the chain itself: they inject directly at nodes 6/1.)
  Simulator sim(collection, priority_config());
  // w0 rank 1, L=8, starts 0: enters link 6 at t=6 and occupies it [6,13].
  // w1 rank 9 injects at node 6 at t=8 -> cuts w0 at link 6, remnant 2.
  // w2 rank 5 injects at node 1 at t=4 -> w0 entered link 1 at t=1,
  // occupied [1,8]: cut at t=4, remnant 3.
  const auto result = sim.run(std::vector<LaunchSpec>{
      spec(0, 0, 0, 8, 1), spec(1, 8, 0, 8, 9), spec(2, 4, 0, 8, 5)});
  EXPECT_TRUE(result.worms[0].truncated);
  EXPECT_EQ(result.metrics.truncated, 2u);
  // Head entered last link (8) at t=8; final remnant is min(2, 3) = 2, so
  // it drains at 8 + 2 - 1 = 9.
  EXPECT_EQ(result.worms[0].finish_time, 9);
}

}  // namespace
}  // namespace opto
