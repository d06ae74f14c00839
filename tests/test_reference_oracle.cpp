// Direct unit tests of the reference engine on tiny hand-computed
// scenarios. Every expectation here was derived on paper from the model
// (§2: worms never stall; link i is held over [s+i, s+i+ℓ−1]) — not by
// running either engine — and each scenario is executed through BOTH the
// reference and the production simulator, so these cases anchor the
// differential fuzzer's oracle to the model itself.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "opto/graph/graph.hpp"
#include "opto/paths/path_collection.hpp"
#include "opto/sim/reference.hpp"
#include "opto/sim/simulator.hpp"

namespace opto {
namespace {

struct BothResults {
  PassResult fast;
  PassResult reference;
};

BothResults run_both(const PathCollection& collection,
                     const SimConfig& config,
                     const std::vector<LaunchSpec>& specs) {
  Simulator simulator(collection, config);
  BothResults results;
  results.fast = simulator.run(specs);
  results.reference = reference_run(collection, config, specs);
  EXPECT_EQ(results.fast.worms.size(), results.reference.worms.size());
  for (std::size_t i = 0; i < results.fast.worms.size(); ++i) {
    EXPECT_EQ(results.fast.worms[i].status, results.reference.worms[i].status)
        << "worm " << i;
    EXPECT_EQ(results.fast.worms[i].finish_time,
              results.reference.worms[i].finish_time)
        << "worm " << i;
    EXPECT_EQ(results.fast.worms[i].truncated,
              results.reference.worms[i].truncated)
        << "worm " << i;
  }
  EXPECT_EQ(results.fast.metrics.delivered,
            results.reference.metrics.delivered);
  EXPECT_EQ(results.fast.metrics.killed, results.reference.metrics.killed);
  EXPECT_EQ(results.fast.metrics.truncated,
            results.reference.metrics.truncated);
  EXPECT_EQ(results.fast.metrics.truncated_arrivals,
            results.reference.metrics.truncated_arrivals);
  EXPECT_EQ(results.fast.metrics.retunes, results.reference.metrics.retunes);
  EXPECT_EQ(results.fast.metrics.makespan,
            results.reference.metrics.makespan);
  return results;
}

/// Star around node 2: arms to 0, 1, and 3. The shared outgoing fiber
/// 2→3 is where everything collides.
std::shared_ptr<const Graph> star_graph() {
  GraphBuilder builder(4, "star");
  builder.add_edge(0, 2);
  builder.add_edge(1, 2);
  builder.add_edge(2, 3);
  return std::make_shared<Graph>(std::move(builder).build());
}

TEST(ReferenceOracle, IntactDeliveryTiming) {
  GraphBuilder builder(3, "chain");
  builder.add_edge(0, 1);
  builder.add_edge(1, 2);
  auto graph = std::make_shared<Graph>(std::move(builder).build());
  const std::vector<std::vector<NodeId>> nodes = {{0, 1, 2}};
  const auto collection = collection_from_node_lists(graph, nodes);
  SimConfig config;
  std::vector<LaunchSpec> specs(1);
  specs[0].path = 0;
  specs[0].start_time = 2;
  specs[0].length = 3;
  const auto results = run_both(collection, config, specs);
  // Head enters link 0 at t=2, link 1 at t=3; tail (flit 2) leaves link 1
  // at t=3+2 = 5.
  EXPECT_EQ(results.reference.worms[0].status, WormStatus::Delivered);
  EXPECT_EQ(results.reference.worms[0].finish_time, 5);
  EXPECT_FALSE(results.reference.worms[0].truncated);
  EXPECT_EQ(results.reference.metrics.delivered, 1u);
}

TEST(ReferenceOracle, ZeroLengthPathDeliversAtStart) {
  GraphBuilder builder(2, "pair");
  builder.add_edge(0, 1);
  auto graph = std::make_shared<Graph>(std::move(builder).build());
  const std::vector<std::vector<NodeId>> nodes = {{1}};
  const auto collection = collection_from_node_lists(graph, nodes);
  SimConfig config;
  std::vector<LaunchSpec> specs(1);
  specs[0].path = 0;
  specs[0].start_time = 7;
  specs[0].length = 4;
  const auto results = run_both(collection, config, specs);
  EXPECT_EQ(results.reference.worms[0].status, WormStatus::Delivered);
  EXPECT_EQ(results.reference.worms[0].finish_time, 7);
}

TEST(ReferenceOracle, ServeFirstEliminatesTheLatecomer) {
  const auto graph = star_graph();
  const std::vector<std::vector<NodeId>> nodes = {{0, 2, 3}, {1, 2, 3}};
  const auto collection = collection_from_node_lists(graph, nodes);
  SimConfig config;  // serve-first
  std::vector<LaunchSpec> specs(2);
  specs[0].path = 0;
  specs[0].start_time = 0;
  specs[0].length = 3;
  specs[1].path = 1;
  specs[1].start_time = 1;
  specs[1].length = 2;
  const auto results = run_both(collection, config, specs);
  // Worm 0 holds 2→3 over [1,3]; worm 1 arrives there at t=2 and dies at
  // path position 1 with worm 0 as witness.
  EXPECT_EQ(results.reference.worms[0].status, WormStatus::Delivered);
  EXPECT_EQ(results.reference.worms[0].finish_time, 3);
  EXPECT_EQ(results.reference.worms[1].status, WormStatus::Killed);
  EXPECT_EQ(results.reference.worms[1].finish_time, 2);
  EXPECT_EQ(results.reference.worms[1].blocked_at_link, 1u);
  EXPECT_EQ(results.reference.worms[1].blocked_by, 0u);
  EXPECT_EQ(results.reference.metrics.killed, 1u);
  EXPECT_EQ(results.reference.metrics.truncated, 0u);
}

TEST(ReferenceOracle, DeadHeatKillAllEliminatesBoth) {
  const auto graph = star_graph();
  const std::vector<std::vector<NodeId>> nodes = {{0, 2, 3}, {1, 2, 3}};
  const auto collection = collection_from_node_lists(graph, nodes);
  SimConfig config;  // serve-first, kill-all
  std::vector<LaunchSpec> specs(2);
  specs[0].path = 0;
  specs[0].start_time = 0;
  specs[0].length = 2;
  specs[1].path = 1;
  specs[1].start_time = 0;
  specs[1].length = 2;
  const auto results = run_both(collection, config, specs);
  // Both heads hit the empty 2→3 coupler at t=1: photonic corruption
  // kills both, each witnessing the other.
  EXPECT_EQ(results.reference.worms[0].status, WormStatus::Killed);
  EXPECT_EQ(results.reference.worms[1].status, WormStatus::Killed);
  EXPECT_EQ(results.reference.worms[0].finish_time, 1);
  EXPECT_EQ(results.reference.worms[1].finish_time, 1);
  EXPECT_EQ(results.reference.worms[0].blocked_by, 1u);
  EXPECT_EQ(results.reference.worms[1].blocked_by, 0u);
  EXPECT_EQ(results.reference.metrics.killed, 2u);
  EXPECT_EQ(results.reference.metrics.delivered, 0u);
}

TEST(ReferenceOracle, DeadHeatFirstWinsAdmitsTheLowerId) {
  const auto graph = star_graph();
  const std::vector<std::vector<NodeId>> nodes = {{0, 2, 3}, {1, 2, 3}};
  const auto collection = collection_from_node_lists(graph, nodes);
  SimConfig config;
  config.tie = TiePolicy::FirstWins;
  std::vector<LaunchSpec> specs(2);
  specs[0].path = 0;
  specs[0].start_time = 0;
  specs[0].length = 2;
  specs[1].path = 1;
  specs[1].start_time = 0;
  specs[1].length = 2;
  const auto results = run_both(collection, config, specs);
  EXPECT_EQ(results.reference.worms[0].status, WormStatus::Delivered);
  EXPECT_EQ(results.reference.worms[0].finish_time, 2);
  EXPECT_EQ(results.reference.worms[1].status, WormStatus::Killed);
  EXPECT_EQ(results.reference.worms[1].blocked_by, 0u);
}

TEST(ReferenceOracle, PriorityTruncationLeavesATravellingRemnant) {
  const auto graph = star_graph();
  const std::vector<std::vector<NodeId>> nodes = {{0, 2, 3}, {1, 2, 3}};
  const auto collection = collection_from_node_lists(graph, nodes);
  SimConfig config;
  config.rule = ContentionRule::Priority;
  std::vector<LaunchSpec> specs(2);
  specs[0].path = 0;  // the low-priority occupant
  specs[0].start_time = 0;
  specs[0].length = 4;
  specs[0].priority = 0;
  specs[1].path = 1;  // the high-priority challenger
  specs[1].start_time = 1;
  specs[1].length = 2;
  specs[1].priority = 1;
  const auto results = run_both(collection, config, specs);
  // Worm 1 reaches 2→3 at t=2 while worm 0 streams through it ([1,4]).
  // The higher rank wins: worm 0 is cut at the coupler at t=2, so only
  // the flit that crossed at t=1 survives downstream — a 1-flit remnant
  // whose tail left the last link at t=1. Worm 0's arrival is a failed
  // (truncated) delivery, not a kill.
  EXPECT_EQ(results.reference.worms[0].status, WormStatus::Delivered);
  EXPECT_TRUE(results.reference.worms[0].truncated);
  EXPECT_EQ(results.reference.worms[0].finish_time, 1);
  EXPECT_EQ(results.reference.worms[1].status, WormStatus::Delivered);
  EXPECT_FALSE(results.reference.worms[1].truncated);
  EXPECT_EQ(results.reference.worms[1].finish_time, 3);
  EXPECT_EQ(results.reference.metrics.truncated, 1u);
  EXPECT_EQ(results.reference.metrics.truncated_arrivals, 1u);
  EXPECT_EQ(results.reference.metrics.delivered, 1u);
  EXPECT_EQ(results.reference.metrics.killed, 0u);
}

// Regression for the same-step double-cut bug the fuzzer found (seed
// 20260805, case 640, minimized): a draining worm whose truncated tail
// would leave the last link exactly at `now` must remain cuttable by
// later contention groups of the same step. The engine used to finalize
// its delivery at the first cut and report finish_time 2; the model (and
// the reference) says the second cut discards the t=2 flit, leaving a
// 1-flit remnant that finished at t=1.
TEST(ReferenceOracle, SameStepDoubleCutShortensTheRemnantTwice) {
  GraphBuilder builder(4, "claw");
  builder.add_edge(0, 1);
  builder.add_edge(0, 2);
  builder.add_edge(0, 3);
  auto graph = std::make_shared<Graph>(std::move(builder).build());
  const std::vector<std::vector<NodeId>> nodes = {
      {2, 0, 3}, {1, 0}, {1, 0, 3}};
  const auto collection = collection_from_node_lists(graph, nodes);
  SimConfig config;
  config.rule = ContentionRule::Priority;
  std::vector<LaunchSpec> specs(3);
  specs[0].path = 0;  // cuts the victim on 0→3 at t=2
  specs[0].start_time = 1;
  specs[0].length = 1;
  specs[0].priority = 2;
  specs[1].path = 1;  // cuts the victim on 1→0, also at t=2
  specs[1].start_time = 2;
  specs[1].length = 1;
  specs[1].priority = 1;
  specs[2].path = 2;  // the long low-priority victim
  specs[2].start_time = 0;
  specs[2].length = 4;
  specs[2].priority = 0;
  const auto results = run_both(collection, config, specs);
  EXPECT_EQ(results.reference.worms[2].status, WormStatus::Delivered);
  EXPECT_TRUE(results.reference.worms[2].truncated);
  EXPECT_EQ(results.reference.worms[2].finish_time, 1);
  EXPECT_EQ(results.reference.worms[0].status, WormStatus::Delivered);
  EXPECT_EQ(results.reference.worms[0].finish_time, 2);
  EXPECT_EQ(results.reference.worms[1].status, WormStatus::Delivered);
  EXPECT_EQ(results.reference.worms[1].finish_time, 2);
  EXPECT_EQ(results.reference.metrics.truncated, 2u);
  EXPECT_EQ(results.reference.metrics.truncated_arrivals, 1u);
  EXPECT_EQ(results.reference.metrics.delivered, 2u);
  EXPECT_EQ(results.reference.metrics.killed, 0u);
}

TEST(ReferenceOracle, ConvertingCouplerRetunesAroundTheOccupant) {
  GraphBuilder builder(3, "chain");
  builder.add_edge(0, 1);
  builder.add_edge(1, 2);
  auto graph = std::make_shared<Graph>(std::move(builder).build());
  const std::vector<std::vector<NodeId>> nodes = {{0, 1, 2}, {1, 2}};
  const auto collection = collection_from_node_lists(graph, nodes);
  SimConfig config;
  config.bandwidth = 2;
  config.conversion = ConversionMode::Full;
  std::vector<LaunchSpec> specs(2);
  specs[0].path = 0;
  specs[0].start_time = 0;
  specs[0].length = 3;
  specs[0].wavelength = 0;
  specs[1].path = 1;
  specs[1].start_time = 2;
  specs[1].length = 2;
  specs[1].wavelength = 0;
  const auto results = run_both(collection, config, specs);
  // Worm 1 wants λ0 on 1→2 at t=2, but worm 0 streams there over [1,3];
  // the converting coupler retunes it onto the free λ1 and both deliver.
  EXPECT_EQ(results.reference.worms[0].status, WormStatus::Delivered);
  EXPECT_EQ(results.reference.worms[0].finish_time, 3);
  EXPECT_EQ(results.reference.worms[1].status, WormStatus::Delivered);
  EXPECT_EQ(results.reference.worms[1].finish_time, 3);
  EXPECT_EQ(results.reference.metrics.retunes, 1u);
  EXPECT_EQ(results.reference.metrics.contentions, 1u);
  EXPECT_EQ(results.reference.metrics.delivered, 2u);
}

}  // namespace
}  // namespace opto
