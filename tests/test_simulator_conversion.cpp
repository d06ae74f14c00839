// Wavelength-conversion extension (§4 / the [11] setting): a blocked
// entrant at a converting router retunes to a free wavelength instead of
// dying.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "opto/paths/lowerbound_structures.hpp"
#include "opto/paths/path_collection.hpp"
#include "opto/sim/simulator.hpp"
#include "screen_check.hpp"

namespace opto {
namespace {

std::shared_ptr<Graph> make_chain(NodeId nodes) {
  GraphBuilder builder(nodes, "chain");
  for (NodeId u = 0; u + 1 < nodes; ++u) builder.add_edge(u, u + 1);
  return std::make_shared<Graph>(std::move(builder).build());
}

PathCollection chain_bundle(std::shared_ptr<const Graph> graph, NodeId from,
                            NodeId to, std::uint32_t copies) {
  PathCollection collection(graph);
  std::vector<NodeId> nodes;
  for (NodeId u = from; u <= to; ++u) nodes.push_back(u);
  for (std::uint32_t c = 0; c < copies; ++c)
    collection.add(Path::from_nodes(*graph, nodes));
  return collection;
}

LaunchSpec spec(PathId path, SimTime start, Wavelength wl, std::uint32_t len,
                std::uint32_t priority = 0) {
  LaunchSpec s;
  s.path = path;
  s.start_time = start;
  s.wavelength = wl;
  s.length = len;
  s.priority = priority;
  return s;
}

TEST(Conversion, BlockedEntrantRetunes) {
  const auto graph = make_chain(5);
  const auto collection = chain_bundle(graph, 0, 4, 2);
  SimConfig config;
  config.bandwidth = 2;
  config.conversion = ConversionMode::Full;
  Simulator sim(collection, config);
  // Without conversion w1 (same wavelength, overlapping window) dies; with
  // conversion it hops to wavelength 1 and both deliver.
  const auto result = sim.run(
      std::vector<LaunchSpec>{spec(0, 0, 0, 3), spec(1, 1, 0, 3)});
  EXPECT_TRUE(result.worms[0].delivered_intact());
  EXPECT_TRUE(result.worms[1].delivered_intact());
  EXPECT_EQ(result.metrics.retunes, 1u);
  EXPECT_EQ(result.metrics.killed, 0u);
}

TEST(Conversion, NoConversionStillKills) {
  const auto graph = make_chain(5);
  const auto collection = chain_bundle(graph, 0, 4, 2);
  SimConfig config;
  config.bandwidth = 2;
  config.conversion = ConversionMode::None;
  Simulator sim(collection, config);
  const auto result = sim.run(
      std::vector<LaunchSpec>{spec(0, 0, 0, 3), spec(1, 1, 0, 3)});
  EXPECT_EQ(result.worms[1].status, WormStatus::Killed);
}

TEST(Conversion, AllWavelengthsBusyStillKillsServeFirst) {
  const auto graph = make_chain(5);
  const auto collection = chain_bundle(graph, 0, 4, 3);
  SimConfig config;
  config.bandwidth = 2;
  config.conversion = ConversionMode::Full;
  Simulator sim(collection, config);
  // w0 and w1 fill both wavelengths; w2 has nowhere to go.
  const auto result = sim.run(std::vector<LaunchSpec>{
      spec(0, 0, 0, 4), spec(1, 0, 1, 4), spec(2, 1, 0, 4)});
  EXPECT_TRUE(result.worms[0].delivered_intact());
  EXPECT_TRUE(result.worms[1].delivered_intact());
  EXPECT_EQ(result.worms[2].status, WormStatus::Killed);
  EXPECT_EQ(result.worms[2].blocked_by, 0u);  // holder of preferred λ0
}

TEST(Conversion, SimultaneousEntrantsSpreadAcrossWavelengths) {
  const auto graph = make_chain(4);
  const auto collection = chain_bundle(graph, 0, 3, 3);
  SimConfig config;
  config.bandwidth = 4;
  config.conversion = ConversionMode::Full;
  Simulator sim(collection, config);
  // All three prefer λ0 at t=0; with conversion they fan out.
  const auto result = sim.run(std::vector<LaunchSpec>{
      spec(0, 0, 0, 2), spec(1, 0, 0, 2), spec(2, 0, 0, 2)});
  EXPECT_EQ(result.metrics.delivered, 3u);
  EXPECT_EQ(result.metrics.retunes, 2u);  // ids 1, 2 retune at link 0
}

TEST(Conversion, EntrantsOnDifferentWavelengthsShareOneGroup) {
  // At a converting router one step's entrants contend by link alone: the
  // attempt key drops their wavelength. Worm 2 holds λ1 on link 0 when
  // worms 0 (λ1) and 1 (λ0) enter it together. Served in worm-id order,
  // worm 0 retunes onto the free λ0 and worm 1 finds nothing left; keyed
  // by (link, λ) instead, worm 1 would take λ0 first and worm 0 would die.
  const auto graph = make_chain(5);
  const auto collection = chain_bundle(graph, 0, 4, 3);
  SimConfig config;
  config.bandwidth = 2;
  config.conversion = ConversionMode::Full;
  Simulator sim(collection, config);
  const auto result = sim.run(std::vector<LaunchSpec>{
      spec(0, 1, 1, 4), spec(1, 1, 0, 4), spec(2, 0, 1, 4)});
  EXPECT_TRUE(result.worms[0].delivered_intact());
  EXPECT_EQ(result.worms[1].status, WormStatus::Killed);
  EXPECT_EQ(result.worms[1].blocked_at_link, 0u);
  EXPECT_TRUE(result.worms[2].delivered_intact());
  EXPECT_EQ(result.metrics.retunes, 1u);
  ASSERT_EQ(result.wavelength_offsets.size(), 4u);
  EXPECT_EQ(result.wavelengths[result.wavelength_offsets[0]], 0u);
}

TEST(Conversion, RetunedWormKeepsNewWavelengthDownstream) {
  const auto graph = make_chain(6);
  const auto collection = chain_bundle(graph, 0, 5, 2);
  SimConfig config;
  config.bandwidth = 2;
  config.conversion = ConversionMode::Full;
  config.record_trace = true;
  Simulator sim(collection, config);
  const auto result = sim.run(
      std::vector<LaunchSpec>{spec(0, 0, 0, 2), spec(1, 1, 0, 2)});
  ASSERT_TRUE(result.worms[1].delivered_intact());
  // After the retune at link 0, every admission of worm 1 uses λ1.
  bool seen_retune = false;
  for (const auto& event : result.trace.events()) {
    if (event.worm != 1) continue;
    if (event.kind == TraceKind::Retune) {
      seen_retune = true;
      EXPECT_EQ(event.wavelength, 1u);
    } else if (event.kind == TraceKind::Admit && seen_retune) {
      EXPECT_EQ(event.wavelength, 1u);
    }
  }
  EXPECT_TRUE(seen_retune);
}

TEST(Conversion, SparseOnlyConvertsAtFlaggedNodes) {
  const auto graph = make_chain(6);
  const auto collection = chain_bundle(graph, 0, 5, 2);
  SimConfig config;
  config.bandwidth = 2;
  config.conversion = ConversionMode::Sparse;
  config.converters.assign(graph->node_count(), 0);
  // No converter at node 0 (the coupler feeding link 0): the injection
  // collision still kills.
  {
    Simulator sim(collection, config);
    const auto result = sim.run(
        std::vector<LaunchSpec>{spec(0, 0, 0, 3), spec(1, 1, 0, 3)});
    EXPECT_EQ(result.worms[1].status, WormStatus::Killed);
  }
  // Converter at node 0: the same collision retunes.
  config.converters[0] = 1;
  {
    Simulator sim(collection, config);
    const auto result = sim.run(
        std::vector<LaunchSpec>{spec(0, 0, 0, 3), spec(1, 1, 0, 3)});
    EXPECT_TRUE(result.worms[1].delivered_intact());
    EXPECT_EQ(result.metrics.retunes, 1u);
  }
}

TEST(Conversion, PriorityStealsWeakestOccupantWhenSaturated) {
  const auto graph = make_chain(5);
  const auto collection = chain_bundle(graph, 0, 4, 3);
  SimConfig config;
  config.bandwidth = 2;
  config.conversion = ConversionMode::Full;
  config.rule = ContentionRule::Priority;
  Simulator sim(collection, config);
  // λ0 held by rank 5, λ1 by rank 2; entrant rank 9 steals λ1 (weakest).
  const auto result = sim.run(std::vector<LaunchSpec>{
      spec(0, 0, 0, 6, 5), spec(1, 0, 1, 6, 2), spec(2, 2, 0, 6, 9)});
  EXPECT_TRUE(result.worms[0].delivered_intact());
  EXPECT_TRUE(result.worms[2].delivered_intact());
  EXPECT_TRUE(result.worms[1].truncated);
  EXPECT_EQ(result.metrics.truncated, 1u);
}

TEST(Conversion, PriorityLoserStillKilledWhenWeaker) {
  const auto graph = make_chain(5);
  const auto collection = chain_bundle(graph, 0, 4, 3);
  SimConfig config;
  config.bandwidth = 2;
  config.conversion = ConversionMode::Full;
  config.rule = ContentionRule::Priority;
  Simulator sim(collection, config);
  const auto result = sim.run(std::vector<LaunchSpec>{
      spec(0, 0, 0, 6, 5), spec(1, 0, 1, 6, 8), spec(2, 2, 0, 6, 1)});
  EXPECT_EQ(result.worms[2].status, WormStatus::Killed);
}

TEST(Conversion, TriangleDeadlockEscapedWithConversion) {
  // The Fig. 6 livelock requires all three worms to share one wavelength
  // everywhere; with B=2 and full conversion someone always escapes.
  const std::uint32_t L = 4;
  const auto collection = make_triangle_collection(1, 10, L);
  SimConfig config;
  config.bandwidth = 2;
  config.conversion = ConversionMode::Full;
  Simulator sim(collection, config);
  std::vector<LaunchSpec> specs;
  for (PathId id = 0; id < 3; ++id) specs.push_back(spec(id, 0, 0, L));
  const auto result = sim.run(specs);
  EXPECT_EQ(result.metrics.delivered, 3u);
}

TEST(Conversion, TruncationShortensHistoryWavelengthClaims) {
  // A retuned worm later truncated must release its *new* wavelength's
  // claims (regression guard for the wavelength-history bookkeeping).
  GraphBuilder builder(7, "hist");
  builder.add_edge(0, 1);
  builder.add_edge(1, 2);
  builder.add_edge(2, 3);
  builder.add_edge(4, 1);
  builder.add_edge(2, 5);
  auto graph = std::make_shared<Graph>(std::move(builder).build());
  PathCollection collection(graph);
  collection.add(Path::from_nodes(*graph, std::vector<NodeId>{0, 1, 2, 3}));
  collection.add(Path::from_nodes(*graph, std::vector<NodeId>{0, 1, 2, 3}));
  collection.add(Path::from_nodes(*graph, std::vector<NodeId>{4, 1, 2, 5}));

  SimConfig config;
  config.bandwidth = 2;
  config.conversion = ConversionMode::Full;
  config.rule = ContentionRule::Priority;
  Simulator sim(collection, config);
  // w0 λ0; w1 retunes to λ1 at injection; w2 (top rank, λ1) saturates both
  // wavelengths at link 1->2 and steals from the weaker of w0/w1.
  const auto result = sim.run(std::vector<LaunchSpec>{
      spec(0, 0, 0, 6, 5), spec(1, 0, 0, 6, 3), spec(2, 2, 1, 6, 9)});
  EXPECT_TRUE(result.worms[2].delivered_intact());
  EXPECT_EQ(result.metrics.truncated, 1u);
  // The weakest (w1, rank 3) was cut.
  EXPECT_TRUE(result.worms[1].truncated);
}

// --- contention screen under conversion ----------------------------------
// A contended worm may retune onto any λ downstream, so the screen keys a
// converting pass by link alone; screen_check::run compares the screened
// pass with the stepped (traced) one and the reference engine.

TEST(ConversionScreen, SameLinkDifferentLambdaIsContended) {
  const auto graph = make_chain(5);
  const auto collection = chain_bundle(graph, 0, 4, 2);
  SimConfig config;
  config.bandwidth = 2;
  const std::vector<LaunchSpec> specs{spec(0, 0, 0, 3), spec(1, 1, 1, 3)};
  config.conversion = ConversionMode::Full;
  const auto converting = screen_check::run(collection, config, specs);
  EXPECT_EQ(converting.settled, 0u);
  EXPECT_EQ(converting.contended, 2u);
  EXPECT_EQ(converting.result.metrics.delivered, 2u);
  EXPECT_EQ(converting.result.metrics.retunes, 0u);
  // Without conversion the two wavelengths never interact.
  config.conversion = ConversionMode::None;
  const auto fixed = screen_check::run(collection, config, specs);
  EXPECT_EQ(fixed.settled, 2u);
}

TEST(ConversionScreen, TouchingWindowsKeepTheirLaunchWavelength) {
  const auto graph = make_chain(5);
  const auto collection = chain_bundle(graph, 0, 4, 2);
  SimConfig config;
  config.bandwidth = 2;
  config.conversion = ConversionMode::Full;
  const auto pass = screen_check::run(
      collection, config,
      std::vector<LaunchSpec>{spec(0, 0, 1, 3), spec(1, 3, 1, 3)});
  EXPECT_EQ(pass.settled, 2u);
  EXPECT_EQ(pass.result.wavelength_offsets,
            (std::vector<std::uint32_t>{0, 4, 8}));
  EXPECT_EQ(pass.result.wavelengths, std::vector<Wavelength>(8, 1));
  // Every hop at a converting router probes all B wavelengths.
  EXPECT_EQ(pass.result.metrics.registry_probes, 2u * 4u * 2u);
}

TEST(ConversionScreen, HoldOnAnotherLambdaOnlyAddsAProbeHit) {
  // The worm's own λ0 is free everywhere and λ1 is held on its third
  // link: the converting router there reads the hold as one probe hit and
  // admits the worm on λ0, so the screen settles it.
  const auto graph = make_chain(5);
  const auto collection = chain_bundle(graph, 0, 4, 1);
  SimConfig config;
  config.bandwidth = 2;
  config.conversion = ConversionMode::Full;
  const std::vector<PinnedSlot> held{{collection.path(0).link(2), 1}};
  const auto pass = screen_check::run(
      collection, config, std::vector<LaunchSpec>{spec(0, 0, 0, 3)}, held);
  EXPECT_EQ(pass.settled, 1u);
  EXPECT_TRUE(pass.result.worms[0].delivered_intact());
  EXPECT_EQ(pass.result.metrics.registry_probes, 4u * 2u);
  EXPECT_EQ(pass.result.metrics.registry_hits, 1u);
}

TEST(ConversionScreen, HoldOnTheOwnLambdaIsContendedAndRetunes) {
  const auto graph = make_chain(5);
  const auto collection = chain_bundle(graph, 0, 4, 1);
  SimConfig config;
  config.bandwidth = 2;
  config.conversion = ConversionMode::Full;
  const std::vector<PinnedSlot> held{{collection.path(0).link(2), 0}};
  const auto pass = screen_check::run(
      collection, config, std::vector<LaunchSpec>{spec(0, 0, 0, 3)}, held);
  EXPECT_EQ(pass.contended, 1u);
  EXPECT_TRUE(pass.result.worms[0].delivered_intact());
  EXPECT_EQ(pass.result.metrics.retunes, 1u);
  EXPECT_EQ(pass.result.wavelengths, (std::vector<Wavelength>{0, 0, 1, 1}));
}

TEST(ConversionScreen, SparseProbesFollowEachRouter) {
  // One converter, at node 2: a settled worm probes B wavelengths on the
  // link that node feeds and one channel on every other link.
  const auto graph = make_chain(6);
  const auto collection = chain_bundle(graph, 0, 5, 3);
  SimConfig config;
  config.bandwidth = 3;
  config.conversion = ConversionMode::Sparse;
  config.converters.assign(graph->node_count(), 0);
  config.converters[2] = 1;
  const auto pass = screen_check::run(
      collection, config,
      std::vector<LaunchSpec>{spec(0, 0, 0, 2), spec(1, 0, 0, 2),
                              spec(2, 9, 2, 2)});
  EXPECT_EQ(pass.settled, 1u);    // worm 2
  EXPECT_EQ(pass.contended, 2u);  // the t=0 pair meets at link 0 and dies
  EXPECT_EQ(pass.result.worms[0].status, WormStatus::Killed);
  EXPECT_EQ(pass.result.worms[1].status, WormStatus::Killed);
  EXPECT_TRUE(pass.result.worms[2].delivered_intact());
}

}  // namespace
}  // namespace opto
