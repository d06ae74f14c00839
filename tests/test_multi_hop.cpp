// Bounded-hop routing (§4 extension): segment splitting and the protocol
// driver semantics.
#include <gtest/gtest.h>

#include <memory>

#include "opto/core/multi_hop.hpp"
#include "opto/graph/mesh.hpp"
#include "opto/paths/lowerbound_structures.hpp"
#include "opto/paths/workloads.hpp"

namespace opto {
namespace {

MultiHopConfig config_with(std::uint32_t spacing, std::uint32_t L,
                           std::uint16_t B = 1) {
  MultiHopConfig config;
  config.hop_spacing = spacing;
  config.worm_length = L;
  config.bandwidth = B;
  config.max_rounds = 2000;
  return config;
}

TEST(MultiHop, SegmentsPartitionPaths) {
  const auto collection = make_bundle_collection(1, 2, 10);
  FixedSchedule schedule(4);
  MultiHopTrialAndFailure protocol(collection, config_with(4, 2), schedule);
  // 10 links split as 4+4+2 per path.
  EXPECT_EQ(protocol.segment_count(0), 3u);
  EXPECT_EQ(protocol.segments().size(), 6u);
  EXPECT_EQ(protocol.segments().path(0).length(), 4u);
  EXPECT_EQ(protocol.segments().path(2).length(), 2u);
  // Consecutive segments chain: destination of one = source of next.
  EXPECT_EQ(protocol.segments().path(0).destination(),
            protocol.segments().path(1).source());
}

TEST(MultiHop, SpacingBeyondDilationIsPlainRouting) {
  const auto collection = make_bundle_collection(1, 4, 6);
  FixedSchedule schedule(16);
  MultiHopTrialAndFailure protocol(collection, config_with(32, 3), schedule);
  EXPECT_EQ(protocol.segments().size(), 4u);
  const auto result = protocol.run(3);
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.max_segments, 1u);
}

TEST(MultiHop, CompletesOnBundle) {
  const auto collection = make_bundle_collection(1, 8, 12);
  FixedSchedule schedule(12);
  MultiHopTrialAndFailure protocol(collection, config_with(3, 2, 2), schedule);
  const auto result = protocol.run(7);
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.max_segments, 4u);
  // A worm needs at least max_segments successful rounds.
  for (const std::uint32_t round : result.completion_round)
    EXPECT_GE(round, 4u);
}

TEST(MultiHop, ZeroLengthPathsFinishImmediately) {
  GraphBuilder builder(2);
  builder.add_edge(0, 1);
  auto graph = std::make_shared<Graph>(std::move(builder).build());
  PathCollection collection(graph);
  collection.add(Path::from_nodes(*graph, std::vector<NodeId>{0}));
  FixedSchedule schedule(2);
  MultiHopTrialAndFailure protocol(collection, config_with(4, 3), schedule);
  const auto result = protocol.run(1);
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.rounds_used, 1u);
}

TEST(MultiHop, DeterministicInSeed) {
  const auto collection = make_bundle_collection(2, 6, 9);
  FixedSchedule schedule(8);
  MultiHopTrialAndFailure protocol(collection, config_with(3, 2), schedule);
  const auto a = protocol.run(11);
  const auto b = protocol.run(11);
  EXPECT_EQ(a.rounds_used, b.rounds_used);
  EXPECT_EQ(a.completion_round, b.completion_round);
}

TEST(MultiHop, BreaksTriangleLivelock) {
  // Hop spacing below the blocking offset m separates the cyclically
  // blocking stretches into different rounds — the livelock dissolves
  // even with no delays and one wavelength.
  const std::uint32_t L = 4;
  const auto collection = make_triangle_collection(1, 10, L);
  NoDelaySchedule schedule;
  auto config = config_with(1, L);
  config.max_rounds = 100;
  MultiHopTrialAndFailure protocol(collection, config, schedule);
  const auto result = protocol.run(5);
  EXPECT_TRUE(result.success);
}

TEST(MultiHop, ChargedTimeUsesSegmentDilation) {
  const auto collection = make_bundle_collection(1, 2, 20);
  FixedSchedule schedule(6);
  MultiHopTrialAndFailure protocol(collection, config_with(5, 3), schedule);
  const auto result = protocol.run(13);
  ASSERT_TRUE(result.success);
  for (const auto& round : result.rounds)
    EXPECT_EQ(round.charged_time, 6 + 2 * (5 + 3));
}

TEST(MultiHop, SegmentCountsAccumulate) {
  const auto collection = make_bundle_collection(1, 4, 8);
  FixedSchedule schedule(8);
  MultiHopTrialAndFailure protocol(collection, config_with(4, 2), schedule);
  const auto result = protocol.run(17);
  ASSERT_TRUE(result.success);
  std::uint64_t deliveries = 0;
  for (const auto& round : result.rounds)
    deliveries += round.segment_deliveries;
  EXPECT_EQ(deliveries, 4u * 2u);  // every worm completes both segments
}

}  // namespace
}  // namespace opto
