// Integration tests of the Trial-and-Failure protocol driver.
#include <gtest/gtest.h>

#include <memory>

#include "opto/core/trial_and_failure.hpp"
#include "opto/graph/mesh.hpp"
#include "opto/paths/dimension_order.hpp"
#include "opto/paths/lowerbound_structures.hpp"
#include "opto/paths/workloads.hpp"

namespace opto {
namespace {

ProtocolConfig base_config(std::uint16_t B, std::uint32_t L) {
  ProtocolConfig config;
  config.bandwidth = B;
  config.worm_length = L;
  config.max_rounds = 200;
  return config;
}

ProblemShape shape_of(const PathCollection& collection, std::uint32_t L,
                      std::uint16_t B) {
  ProblemShape shape;
  shape.size = collection.size();
  shape.dilation = collection.dilation();
  shape.path_congestion = collection.path_congestion();
  shape.worm_length = L;
  shape.bandwidth = B;
  return shape;
}

TEST(Protocol, RoutesTorusPermutation) {
  auto topo = std::make_shared<MeshTopology>(make_torus({4, 4}));
  std::shared_ptr<const Graph> graph(topo, &topo->graph);
  Rng rng(1);
  const auto perm = random_permutation(16, rng);
  PathCollection collection(graph);
  for (NodeId s = 0; s < 16; ++s)
    collection.add(dimension_order_path(*topo, s, perm[s]));

  const auto config = base_config(2, 4);
  PaperSchedule schedule(shape_of(collection, 4, 2));
  TrialAndFailure protocol(collection, config, schedule);
  const auto result = protocol.run(99);

  EXPECT_TRUE(result.success);
  EXPECT_GE(result.rounds_used, 1u);
  EXPECT_EQ(result.rounds.size(), result.rounds_used);
  for (std::uint32_t round : result.completion_round) {
    EXPECT_GE(round, 1u);
    EXPECT_LE(round, result.rounds_used);
  }
  // Charged time accounting: Σ (Δ_t + 2(D+L)).
  SimTime expected = 0;
  for (const auto& report : result.rounds) {
    expected += report.charged_time;
    EXPECT_EQ(report.charged_time,
              report.delta + 2 * (collection.dilation() + 4));
  }
  EXPECT_EQ(result.total_charged_time, expected);
}

TEST(Protocol, DeterministicInSeed) {
  const auto collection = make_bundle_collection(2, 8, 6);
  const auto config = base_config(2, 3);
  PaperSchedule schedule(shape_of(collection, 3, 2));
  TrialAndFailure protocol(collection, config, schedule);
  const auto a = protocol.run(7);
  const auto b = protocol.run(7);
  EXPECT_EQ(a.rounds_used, b.rounds_used);
  EXPECT_EQ(a.total_charged_time, b.total_charged_time);
  EXPECT_EQ(a.completion_round, b.completion_round);
  // The seed matters: on this easy workload a single other seed can
  // coincide round-for-round by chance, so probe a few.
  bool any_different = false;
  for (std::uint64_t s = 8; s < 16 && !any_different; ++s) {
    const auto c = protocol.run(s);
    any_different = a.rounds_used != c.rounds_used ||
                    a.completion_round != c.completion_round;
  }
  EXPECT_TRUE(any_different);
}

TEST(Protocol, ActiveSetShrinksMonotonically) {
  const auto collection = make_bundle_collection(1, 32, 10);
  const auto config = base_config(1, 4);
  PaperSchedule schedule(shape_of(collection, 4, 1));
  TrialAndFailure protocol(collection, config, schedule);
  const auto result = protocol.run(3);
  ASSERT_TRUE(result.success);
  for (std::size_t i = 1; i < result.rounds.size(); ++i)
    EXPECT_EQ(result.rounds[i].active_before,
              result.rounds[i - 1].active_before -
                  result.rounds[i - 1].acknowledged);
}

TEST(Protocol, TriangleWithNoDelayNeverFinishesServeFirst) {
  // Deterministic livelock: Δ = 1 forces equal delays, B = 1 forces one
  // wavelength, so the three worms eliminate each other every round — the
  // mechanism of the Main Theorem 1.2 lower bound.
  const auto collection = make_triangle_collection(1, 8, 4);
  auto config = base_config(1, 4);
  config.max_rounds = 30;
  NoDelaySchedule schedule;
  TrialAndFailure protocol(collection, config, schedule);
  const auto result = protocol.run(5);
  EXPECT_FALSE(result.success);
  EXPECT_EQ(result.rounds_used, 30u);
  for (const auto& report : result.rounds)
    EXPECT_EQ(report.delivered, 0u);
}

TEST(Protocol, TriangleWithNoDelayFinishesUnderPriority) {
  // Same adversarial setup, priority routers: someone always wins, so the
  // protocol drains in ≤ 3 rounds (Main Theorem 1.3's separation).
  const auto collection = make_triangle_collection(1, 8, 4);
  auto config = base_config(1, 4);
  config.rule = ContentionRule::Priority;
  NoDelaySchedule schedule;
  TrialAndFailure protocol(collection, config, schedule);
  const auto result = protocol.run(5);
  EXPECT_TRUE(result.success);
  EXPECT_LE(result.rounds_used, 3u);
}

TEST(Protocol, SimulatedAcksEventuallyComplete) {
  const auto collection = make_bundle_collection(1, 12, 6);
  auto config = base_config(2, 4);
  config.ack_mode = AckMode::Simulated;
  PaperSchedule schedule(shape_of(collection, 4, 2));
  TrialAndFailure protocol(collection, config, schedule);
  const auto result = protocol.run(11);
  EXPECT_TRUE(result.success);
  // Every worm delivered at least once; lost acks show up as duplicates.
  std::uint64_t total_acked = 0;
  for (const auto& report : result.rounds) total_acked += report.acknowledged;
  EXPECT_EQ(total_acked, collection.size());
}

TEST(Protocol, IdealAcksNeverDuplicate) {
  const auto collection = make_bundle_collection(1, 16, 8);
  const auto config = base_config(1, 4);
  PaperSchedule schedule(shape_of(collection, 4, 1));
  TrialAndFailure protocol(collection, config, schedule);
  const auto result = protocol.run(13);
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.duplicate_deliveries, 0u);
}

TEST(Protocol, TracksCongestionDecay) {
  const auto collection = make_bundle_collection(1, 64, 8);
  auto config = base_config(1, 2);
  config.track_congestion = true;
  PaperSchedule schedule(shape_of(collection, 2, 1));
  TrialAndFailure protocol(collection, config, schedule);
  const auto result = protocol.run(17);
  ASSERT_TRUE(result.success);
  ASSERT_GE(result.rounds.size(), 1u);
  EXPECT_EQ(result.rounds.front().active_congestion, 63u);
  // Congestion never increases (worms only retire).
  for (std::size_t i = 1; i < result.rounds.size(); ++i)
    EXPECT_LE(result.rounds[i].active_congestion,
              result.rounds[i - 1].active_congestion);
}

TEST(Protocol, ZeroLengthPathsFinishInOneRound) {
  GraphBuilder builder(3);
  builder.add_edge(0, 1);
  builder.add_edge(1, 2);
  auto graph = std::make_shared<Graph>(std::move(builder).build());
  PathCollection collection(graph);
  for (NodeId u = 0; u < 3; ++u)
    collection.add(Path::from_nodes(*graph, std::vector<NodeId>{u}));
  const auto config = base_config(1, 5);
  FixedSchedule schedule(4);
  TrialAndFailure protocol(collection, config, schedule);
  const auto result = protocol.run(19);
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.rounds_used, 1u);
}

TEST(Protocol, AdversarialPrioritiesOnStaircase) {
  // §2.2's adversary: rank i on path i. The protocol still completes (the
  // upper bound holds for any distinct ranks), it just pays more rounds.
  const auto collection = make_staircase_collection(2, 6, 16, 4);
  auto config = base_config(1, 4);
  config.rule = ContentionRule::Priority;
  config.priorities = PriorityStrategy::AdversarialByPath;
  PaperSchedule schedule(shape_of(collection, 4, 1));
  TrialAndFailure protocol(collection, config, schedule);
  const auto result = protocol.run(23);
  EXPECT_TRUE(result.success);
}

}  // namespace
}  // namespace opto
