// Property sweeps for the multi-hop driver across spacing × rule × B,
// including layout-driven explicit segments.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <tuple>

#include "opto/core/multi_hop.hpp"
#include "opto/graph/mesh.hpp"
#include "opto/paths/lightpath_layout.hpp"
#include "opto/paths/workloads.hpp"

namespace opto {
namespace {

using Params = std::tuple<int /*spacing*/, ContentionRule, int /*B*/>;

class MultiHopProperties : public ::testing::TestWithParam<Params> {
 protected:
  MultiHopConfig config() const {
    MultiHopConfig cfg;
    cfg.hop_spacing = static_cast<std::uint32_t>(std::get<0>(GetParam()));
    cfg.rule = std::get<1>(GetParam());
    cfg.bandwidth = static_cast<std::uint16_t>(std::get<2>(GetParam()));
    cfg.worm_length = 3;
    cfg.max_rounds = 5000;
    return cfg;
  }
};

TEST_P(MultiHopProperties, CompletesAndAccountsSegments) {
  auto topo = std::make_shared<MeshTopology>(make_mesh({16}));
  Rng rng(5);
  const auto collection = mesh_random_function(topo, rng);
  FixedSchedule schedule(12);
  MultiHopTrialAndFailure protocol(collection, config(), schedule);
  const auto result = protocol.run(9);
  ASSERT_TRUE(result.success);

  // Total segment deliveries == Σ per-worm segment counts.
  std::uint64_t expected = 0;
  for (PathId id = 0; id < collection.size(); ++id)
    expected += protocol.segment_count(id);
  std::uint64_t delivered = 0, finished = 0;
  for (const auto& round : result.rounds) {
    delivered += round.segment_deliveries;
    finished += round.worms_finished;
    EXPECT_LE(round.segment_deliveries, round.attempts);
    EXPECT_LE(round.worms_finished, round.segment_deliveries);
  }
  EXPECT_EQ(delivered, expected);
  EXPECT_EQ(finished, collection.size());

  // Segment counts match the spacing split.
  for (PathId id = 0; id < collection.size(); ++id) {
    const std::uint32_t length = collection.path(id).length();
    const std::uint32_t spacing = config().hop_spacing;
    const std::uint32_t expected_segments =
        length == 0 ? 1 : (length + spacing - 1) / spacing;
    EXPECT_EQ(protocol.segment_count(id), expected_segments);
  }

  // A worm needs at least its segment count of rounds.
  for (PathId id = 0; id < collection.size(); ++id)
    EXPECT_GE(result.completion_round[id], protocol.segment_count(id));
}

TEST_P(MultiHopProperties, DeterministicInSeed) {
  auto topo = std::make_shared<MeshTopology>(make_mesh({12}));
  Rng rng(7);
  const auto collection = mesh_random_function(topo, rng);
  FixedSchedule schedule(10);
  MultiHopTrialAndFailure protocol(collection, config(), schedule);
  const auto a = protocol.run(3);
  const auto b = protocol.run(3);
  EXPECT_EQ(a.rounds_used, b.rounds_used);
  EXPECT_EQ(a.completion_round, b.completion_round);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MultiHopProperties,
    ::testing::Combine(::testing::Values(1, 3, 8, 64),
                       ::testing::Values(ContentionRule::ServeFirst,
                                         ContentionRule::Priority),
                       ::testing::Values(1, 2)),
    [](const ::testing::TestParamInfo<Params>& info) {
      std::string name = "h";
      name += std::to_string(std::get<0>(info.param));
      name += std::get<1>(info.param) == ContentionRule::ServeFirst
                  ? "_sf"
                  : "_prio";
      name += "_B";
      name += std::to_string(std::get<2>(info.param));
      return name;
    });

TEST(MultiHopLayout, LayoutSegmentsRouteEverything) {
  // Explicit segments from a chain layout: every request must land.
  const auto layout = make_chain_layout(40, 3);
  Rng rng(31);
  const auto f = random_function(40, rng);
  std::vector<std::vector<Path>> segments(40);
  for (NodeId i = 0; i < 40; ++i) {
    segments[i] = layout_route(layout, i, f[i]);
    if (segments[i].empty())
      segments[i].push_back(
          Path::from_nodes(*layout.graph, std::vector<NodeId>{i}));
  }
  MultiHopConfig config;
  config.bandwidth = 2;
  config.worm_length = 3;
  config.max_rounds = 5000;
  FixedSchedule schedule(16);
  MultiHopTrialAndFailure protocol(layout.graph, std::move(segments), config,
                                   schedule);
  const auto result = protocol.run(41);
  EXPECT_TRUE(result.success);
}

}  // namespace
}  // namespace opto
