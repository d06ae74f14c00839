// Hand-computed scenarios for the wormhole engine under the serve-first
// rule. Every expectation below is derived directly from the model:
// a worm injected at s enters link i at s+i and occupies it for its flit
// length; an entrant finding the wavelength busy is eliminated; its
// upstream flits keep draining (and keep blocking).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "opto/graph/mesh.hpp"
#include "opto/paths/path_collection.hpp"
#include "opto/paths/workloads.hpp"
#include "opto/rng/rng.hpp"
#include "opto/sim/faults.hpp"
#include "opto/sim/reference.hpp"
#include "opto/sim/simulator.hpp"
#include "opto/sim/validate.hpp"

namespace opto {
namespace {

/// Chain graph 0-1-2-...-n with extra edges on demand.
std::shared_ptr<Graph> make_chain(NodeId nodes) {
  auto graph = std::make_shared<Graph>(nodes, "chain");
  for (NodeId u = 0; u + 1 < nodes; ++u) graph->add_edge(u, u + 1);
  return graph;
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

TEST(Simulator, SingleWormDeliversOnSchedule) {
  const auto graph = make_chain(5);  // path length 4
  const auto collection = chain_bundle(graph, 0, 4, 1);
  Simulator sim(collection, {});
  const auto result = sim.run(std::vector<LaunchSpec>{spec(0, 0, 0, 3)});

  ASSERT_EQ(result.worms.size(), 1u);
  EXPECT_TRUE(result.worms[0].delivered_intact());
  // Head enters last link (index 3) at t=3; tail leaves at 3 + L - 1 = 5.
  EXPECT_EQ(result.worms[0].finish_time, 5);
  EXPECT_EQ(result.metrics.delivered, 1u);
  EXPECT_EQ(result.metrics.killed, 0u);
  EXPECT_EQ(result.metrics.makespan, 5);
}

TEST(Simulator, SingleWormWithDelay) {
  const auto graph = make_chain(3);
  const auto collection = chain_bundle(graph, 0, 2, 1);
  Simulator sim(collection, {});
  const auto result = sim.run(std::vector<LaunchSpec>{spec(0, 7, 0, 2)});
  EXPECT_TRUE(result.worms[0].delivered_intact());
  // Enters link 1 at t=8, tail leaves at 8 + 1 = 9.
  EXPECT_EQ(result.worms[0].finish_time, 9);
}

TEST(Simulator, ZeroLengthPathDeliversInstantly) {
  const auto graph = make_chain(2);
  PathCollection collection(graph);
  collection.add(Path::from_nodes(*graph, std::vector<NodeId>{1}));
  Simulator sim(collection, {});
  const auto result = sim.run(std::vector<LaunchSpec>{spec(0, 4, 0, 5)});
  EXPECT_TRUE(result.worms[0].delivered_intact());
  EXPECT_EQ(result.worms[0].finish_time, 4);
}

TEST(Simulator, LaterWormEliminatedByOccupant) {
  const auto graph = make_chain(5);
  const auto collection = chain_bundle(graph, 0, 4, 2);
  Simulator sim(collection, {});
  // w0 occupies link 0 during [0, 2]; w1 arrives at t=1 -> eliminated.
  const auto result = sim.run(
      std::vector<LaunchSpec>{spec(0, 0, 0, 3), spec(1, 1, 0, 3)});
  EXPECT_TRUE(result.worms[0].delivered_intact());
  EXPECT_EQ(result.worms[1].status, WormStatus::Killed);
  EXPECT_EQ(result.worms[1].blocked_by, 0u);
  EXPECT_EQ(result.worms[1].blocked_at_link, 0u);
  EXPECT_EQ(result.worms[1].finish_time, 1);
  EXPECT_EQ(result.metrics.killed, 1u);
  EXPECT_EQ(result.metrics.contentions, 1u);
}

TEST(Simulator, DisjointWavelengthsDoNotCollide) {
  const auto graph = make_chain(5);
  const auto collection = chain_bundle(graph, 0, 4, 2);
  SimConfig config;
  config.bandwidth = 2;
  Simulator sim(collection, config);
  const auto result = sim.run(
      std::vector<LaunchSpec>{spec(0, 0, 0, 3), spec(1, 0, 1, 3)});
  EXPECT_TRUE(result.worms[0].delivered_intact());
  EXPECT_TRUE(result.worms[1].delivered_intact());
  EXPECT_EQ(result.metrics.contentions, 0u);
}

TEST(Simulator, SpacedWormsShareLinkSequentially) {
  const auto graph = make_chain(5);
  const auto collection = chain_bundle(graph, 0, 4, 2);
  Simulator sim(collection, {});
  // w0 frees link 0 after step L-1=2; w1 entering at t=3 fits behind it.
  const auto result = sim.run(
      std::vector<LaunchSpec>{spec(0, 0, 0, 3), spec(1, 3, 0, 3)});
  EXPECT_TRUE(result.worms[0].delivered_intact());
  EXPECT_TRUE(result.worms[1].delivered_intact());
}

TEST(Simulator, SimultaneousArrivalKillAll) {
  const auto graph = make_chain(4);
  const auto collection = chain_bundle(graph, 0, 3, 2);
  Simulator sim(collection, {});  // default tie: KillAll
  const auto result = sim.run(
      std::vector<LaunchSpec>{spec(0, 0, 0, 2), spec(1, 0, 0, 2)});
  EXPECT_EQ(result.worms[0].status, WormStatus::Killed);
  EXPECT_EQ(result.worms[1].status, WormStatus::Killed);
  // Dead-heat: each cites the other as witness.
  EXPECT_EQ(result.worms[0].blocked_by, 1u);
  EXPECT_EQ(result.worms[1].blocked_by, 0u);
}

TEST(Simulator, SimultaneousArrivalFirstWins) {
  const auto graph = make_chain(4);
  const auto collection = chain_bundle(graph, 0, 3, 2);
  SimConfig config;
  config.tie = TiePolicy::FirstWins;
  Simulator sim(collection, config);
  const auto result = sim.run(
      std::vector<LaunchSpec>{spec(0, 0, 0, 2), spec(1, 0, 0, 2)});
  EXPECT_TRUE(result.worms[0].delivered_intact());
  EXPECT_EQ(result.worms[1].status, WormStatus::Killed);
  EXPECT_EQ(result.worms[1].blocked_by, 0u);
}

TEST(Simulator, CrossingPathsCollideOnSharedLink) {
  // A: 0-1-2-3, B: 4-1-2-5. Shared link 1->2 at position 1 on both.
  auto graph = std::make_shared<Graph>(6, "cross");
  graph->add_edge(0, 1);
  graph->add_edge(1, 2);
  graph->add_edge(2, 3);
  graph->add_edge(4, 1);
  graph->add_edge(2, 5);
  PathCollection collection(graph);
  collection.add(
      Path::from_nodes(*graph, std::vector<NodeId>{0, 1, 2, 3}));
  collection.add(
      Path::from_nodes(*graph, std::vector<NodeId>{4, 1, 2, 5}));

  Simulator sim(collection, {});
  // A enters 1->2 at t=1, occupies [1, 3] (L=3); B arrives there at t=2.
  const auto result = sim.run(
      std::vector<LaunchSpec>{spec(0, 0, 0, 3), spec(1, 1, 0, 3)});
  EXPECT_TRUE(result.worms[0].delivered_intact());
  EXPECT_EQ(result.worms[1].status, WormStatus::Killed);
  EXPECT_EQ(result.worms[1].blocked_at_link, 1u);
  EXPECT_EQ(result.worms[1].blocked_by, 0u);
}

TEST(Simulator, DrainingWormStillBlocksUpstream) {
  // B (4-1-2-5) is killed at link 1->2 but its flits drain through 4->1
  // and must still eliminate C (4-1-6) there.
  auto graph = std::make_shared<Graph>(7, "drain");
  graph->add_edge(0, 1);
  graph->add_edge(1, 2);
  graph->add_edge(2, 3);
  graph->add_edge(4, 1);
  graph->add_edge(2, 5);
  graph->add_edge(1, 6);
  PathCollection collection(graph);
  collection.add(Path::from_nodes(*graph, std::vector<NodeId>{0, 1, 2, 3}));
  collection.add(Path::from_nodes(*graph, std::vector<NodeId>{4, 1, 2, 5}));
  collection.add(Path::from_nodes(*graph, std::vector<NodeId>{4, 1, 6}));

  Simulator sim(collection, {});
  const auto result = sim.run(std::vector<LaunchSpec>{
      spec(0, 0, 0, 3),   // A delivers
      spec(1, 1, 0, 3),   // B killed at 1->2 at t=2; occupies 4->1 on [1,3]
      spec(2, 2, 0, 3)}); // C hits 4->1 at t=2 -> killed by draining B
  EXPECT_TRUE(result.worms[0].delivered_intact());
  EXPECT_EQ(result.worms[1].status, WormStatus::Killed);
  EXPECT_EQ(result.worms[2].status, WormStatus::Killed);
  EXPECT_EQ(result.worms[2].blocked_by, 1u);
  EXPECT_EQ(result.worms[2].blocked_at_link, 0u);
}

TEST(Simulator, WormPassesAfterDrainWindow) {
  // Same geometry, but C arrives after B's flits fully drained off 4->1.
  auto graph = std::make_shared<Graph>(7, "drain2");
  graph->add_edge(0, 1);
  graph->add_edge(1, 2);
  graph->add_edge(2, 3);
  graph->add_edge(4, 1);
  graph->add_edge(2, 5);
  graph->add_edge(1, 6);
  PathCollection collection(graph);
  collection.add(Path::from_nodes(*graph, std::vector<NodeId>{0, 1, 2, 3}));
  collection.add(Path::from_nodes(*graph, std::vector<NodeId>{4, 1, 2, 5}));
  collection.add(Path::from_nodes(*graph, std::vector<NodeId>{4, 1, 6}));

  Simulator sim(collection, {});
  // B occupies 4->1 on [1, 3]; C enters at t=4.
  const auto result = sim.run(std::vector<LaunchSpec>{
      spec(0, 0, 0, 3), spec(1, 1, 0, 3), spec(2, 4, 0, 3)});
  EXPECT_TRUE(result.worms[2].delivered_intact());
}

TEST(Simulator, TraceRecordsLifecycle) {
  const auto graph = make_chain(4);
  const auto collection = chain_bundle(graph, 0, 3, 2);
  SimConfig config;
  config.record_trace = true;
  Simulator sim(collection, config);
  const auto result = sim.run(
      std::vector<LaunchSpec>{spec(0, 0, 0, 2), spec(1, 1, 0, 2)});

  std::size_t injects = 0, admits = 0, kills = 0, delivers = 0;
  for (const auto& event : result.trace.events()) {
    switch (event.kind) {
      case TraceKind::Inject: ++injects; break;
      case TraceKind::Admit: ++admits; break;
      case TraceKind::Kill: ++kills; break;
      case TraceKind::Deliver: ++delivers; break;
      default: break;
    }
  }
  EXPECT_EQ(injects, 2u);
  EXPECT_EQ(admits, 3u);  // w0 crosses 3 links; w1 admitted nowhere
  EXPECT_EQ(kills, 1u);
  EXPECT_EQ(delivers, 1u);
}

TEST(Simulator, MetricsCountWormSteps) {
  const auto graph = make_chain(6);
  const auto collection = chain_bundle(graph, 0, 5, 1);
  Simulator sim(collection, {});
  const auto result = sim.run(std::vector<LaunchSpec>{spec(0, 0, 0, 2)});
  EXPECT_EQ(result.metrics.worm_steps, 5u);
  EXPECT_EQ(result.metrics.launched, 1u);
}

TEST(Simulator, DeterministicAcrossRuns) {
  const auto graph = make_chain(6);
  const auto collection = chain_bundle(graph, 0, 5, 4);
  Simulator sim(collection, {});
  const std::vector<LaunchSpec> specs{spec(0, 0, 0, 3), spec(1, 1, 0, 3),
                                      spec(2, 2, 0, 3), spec(3, 5, 0, 3)};
  const auto a = sim.run(specs);
  const auto b = sim.run(specs);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(a.worms[i].status, b.worms[i].status);
    EXPECT_EQ(a.worms[i].finish_time, b.worms[i].finish_time);
  }
}

TEST(Simulator, LinkBusyStepsSingleWorm) {
  const auto graph = make_chain(5);  // 4 undirected = 8 directed links
  const auto collection = chain_bundle(graph, 0, 4, 1);
  Simulator sim(collection, {});
  const auto result = sim.run(std::vector<LaunchSpec>{spec(0, 0, 0, 3)});
  // 4 links × 3 flits each.
  EXPECT_EQ(result.metrics.link_busy_steps, 12u);
  // makespan 5 → 6 steps × 8 links × B=1 slots.
  EXPECT_DOUBLE_EQ(result.metrics.utilization(8, 1), 12.0 / 48.0);
}

TEST(Simulator, LinkBusyStepsAccountTruncationTrim) {
  const auto graph = make_chain(5);
  PathCollection collection(graph);
  const std::vector<NodeId> nodes{0, 1, 2, 3, 4};
  collection.add(Path::from_nodes(*graph, nodes));
  collection.add(Path::from_nodes(*graph, nodes));
  SimConfig config;
  config.rule = ContentionRule::Priority;
  Simulator sim(collection, config);
  // w0 (rank 1, L=4) is cut at link 0 at t=2 by w1 (rank 2): w0's stream
  // shrinks to 2 flits everywhere, so it occupies 2 per link (8 total);
  // w1 occupies 4 per link (16 total).
  const auto result = sim.run(
      std::vector<LaunchSpec>{spec(0, 0, 0, 4, 1), spec(1, 2, 0, 4, 2)});
  ASSERT_EQ(result.metrics.truncated, 1u);
  EXPECT_EQ(result.metrics.link_busy_steps, 8u + 16u);
}

TEST(Simulator, TruncatedDrainFinalizesMonotonically) {
  const auto graph = make_chain(5);
  PathCollection collection(graph);
  collection.add(Path::from_nodes(*graph, std::vector<NodeId>{0, 1, 2, 3, 4}));
  collection.add(Path::from_nodes(*graph, std::vector<NodeId>{3, 4}));
  SimConfig config;
  config.rule = ContentionRule::Priority;
  config.record_trace = true;
  Simulator sim(collection, config);
  // w0 (rank 1, L=10) drains from t=4 and would finish at 3 + 10 - 1 = 12.
  // w1 (rank 2) enters link 3->4 at t=6 and cuts w0 there: the remnant is
  // 6 - 3 = 3 flits, so w0's tail actually left the last link at
  // 3 + 3 - 1 = 5 — already in the past. The engine must finalize w0 on
  // the spot (finish_time 5) instead of letting the drain scan emit a
  // Deliver event stamped before the Truncate it just recorded.
  const auto result = sim.run(
      std::vector<LaunchSpec>{spec(0, 0, 0, 10, 1), spec(1, 6, 0, 2, 2)});
  EXPECT_EQ(result.worms[0].status, WormStatus::Delivered);
  EXPECT_TRUE(result.worms[0].truncated);
  EXPECT_FALSE(result.worms[0].delivered_intact());
  EXPECT_EQ(result.worms[0].finish_time, 5);
  EXPECT_TRUE(result.worms[1].delivered_intact());
  EXPECT_EQ(result.worms[1].finish_time, 7);
  EXPECT_EQ(result.metrics.truncated, 1u);
  EXPECT_EQ(result.metrics.truncated_arrivals, 1u);
  EXPECT_EQ(result.metrics.delivered, 1u);
  EXPECT_EQ(result.metrics.killed, 0u);
  // The trace stays time-monotonic; w0's Deliver is stamped at the cut.
  SimTime last = 0;
  bool saw_w0_deliver = false;
  for (const auto& event : result.trace.events()) {
    EXPECT_GE(event.time, last);
    last = event.time;
    if (event.kind == TraceKind::Deliver && event.worm == 0) {
      saw_w0_deliver = true;
      EXPECT_EQ(event.time, 6);
    }
  }
  EXPECT_TRUE(saw_w0_deliver);
}

TEST(Simulator, LongWormBlocksWholeWindow) {
  const auto graph = make_chain(3);
  const auto collection = chain_bundle(graph, 0, 2, 2);
  Simulator sim(collection, {});
  // L=10: w0 occupies link 0 during [0, 9]; w1 at t=9 still blocked.
  const auto blocked = sim.run(
      std::vector<LaunchSpec>{spec(0, 0, 0, 10), spec(1, 9, 0, 10)});
  EXPECT_EQ(blocked.worms[1].status, WormStatus::Killed);
  // At t=10 the link is free.
  const auto free = sim.run(
      std::vector<LaunchSpec>{spec(0, 0, 0, 10), spec(1, 10, 0, 10)});
  EXPECT_TRUE(free.worms[1].delivered_intact());
}

/// Field-for-field comparison of a pass with the reference engine run on
/// the same specs and held slots (the reference models no faults).
void expect_matches_reference(const PathCollection& collection,
                              SimConfig config,
                              const std::vector<LaunchSpec>& specs,
                              std::span<const PinnedSlot> held,
                              const PassResult& fast) {
  config.faults = nullptr;
  const PassResult ref = reference_run(collection, config, specs, held);
  ASSERT_EQ(fast.worms.size(), ref.worms.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    SCOPED_TRACE("worm " + std::to_string(i));
    const WormOutcome& a = fast.worms[i];
    const WormOutcome& b = ref.worms[i];
    EXPECT_EQ(a.status, b.status);
    EXPECT_EQ(a.finish_time, b.finish_time);
    EXPECT_EQ(a.truncated, b.truncated);
    EXPECT_EQ(a.pinned_loss, b.pinned_loss);
    EXPECT_EQ(a.blocked_by, b.blocked_by);
    EXPECT_EQ(a.blocked_at_link, b.blocked_at_link);
  }
  EXPECT_EQ(fast.metrics.launched, ref.metrics.launched);
  EXPECT_EQ(fast.metrics.delivered, ref.metrics.delivered);
  EXPECT_EQ(fast.metrics.killed, ref.metrics.killed);
  EXPECT_EQ(fast.metrics.pinned_blocks, ref.metrics.pinned_blocks);
  EXPECT_EQ(fast.metrics.contentions, ref.metrics.contentions);
  EXPECT_EQ(fast.metrics.retunes, ref.metrics.retunes);
  EXPECT_EQ(fast.metrics.worm_steps, ref.metrics.worm_steps);
  EXPECT_EQ(fast.metrics.makespan, ref.metrics.makespan);
}

TEST(SimulatorHeld, MaskEditedBetweenPassesIsReadWithoutReinstalling) {
  const auto graph = make_chain(4);
  const auto collection = chain_bundle(graph, 0, 3, 2);
  SimConfig config;
  config.bandwidth = 2;
  Simulator sim(collection, config);
  std::vector<std::uint8_t> held(
      static_cast<std::size_t>(graph->link_count()) * config.bandwidth, 0);
  sim.set_held(held);  // installed once; only its bytes change below
  const std::vector<LaunchSpec> specs{spec(0, 0, 0, 2), spec(1, 0, 1, 2)};
  const EdgeId middle = collection.path(0).link(1);
  const auto channel = [&](Wavelength w) {
    return static_cast<std::size_t>(middle) * config.bandwidth + w;
  };

  const PassResult open = sim.run(specs);
  expect_matches_reference(collection, config, specs, {}, open);
  EXPECT_EQ(open.metrics.delivered, 2u);

  held[channel(0)] = 1;
  const std::vector<PinnedSlot> first{{middle, 0}};
  const PassResult blocked = sim.run(specs);
  expect_matches_reference(collection, config, specs, first, blocked);
  EXPECT_TRUE(blocked.worms[0].pinned_loss);
  EXPECT_EQ(blocked.worms[0].blocked_at_link, 1u);
  EXPECT_TRUE(blocked.worms[1].delivered_intact());

  held[channel(0)] = 0;
  held[channel(1)] = 1;
  const std::vector<PinnedSlot> second{{middle, 1}};
  const PassResult moved = sim.run(specs);
  expect_matches_reference(collection, config, specs, second, moved);
  EXPECT_TRUE(moved.worms[0].delivered_intact());
  EXPECT_TRUE(moved.worms[1].pinned_loss);
}

TEST(SimulatorHeld, HeldChannelShadowsStuckFault) {
  // Every channel is stuck; holding a channel turns its entrants' losses
  // from fault kills into pinned blocks, at fixed and converting routers
  // alike, and the pass then matches the fault-free reference run with
  // the same holds.
  FaultConfig faults;
  faults.stuck_wavelength_rate = 1.0;
  const FaultPlan plan(faults, 7);
  const auto graph = make_chain(4);
  const auto collection = chain_bundle(graph, 0, 3, 2);
  const EdgeId first = collection.path(0).link(0);
  const std::vector<LaunchSpec> specs{spec(0, 0, 0, 2, 1),
                                      spec(1, 1, 1, 2, 2)};
  for (const ConversionMode conversion :
       {ConversionMode::None, ConversionMode::Full}) {
    for (const ContentionRule rule :
         {ContentionRule::ServeFirst, ContentionRule::Priority}) {
      SCOPED_TRACE(std::string(to_string(conversion)) + " rule " +
                   std::to_string(static_cast<int>(rule)));
      SimConfig config;
      config.bandwidth = 2;
      config.conversion = conversion;
      config.rule = rule;
      config.faults = &plan;

      const std::vector<PinnedSlot> both{{first, 0}, {first, 1}};
      const auto held = held_mask(graph->link_count(), 2, both);
      Simulator sim(collection, config);
      sim.set_held(held);
      const PassResult shadowed = sim.run(specs);
      EXPECT_EQ(shadowed.metrics.pinned_blocks, 2u);
      EXPECT_EQ(shadowed.metrics.fault_kills, 0u);
      expect_matches_reference(collection, config, specs, both, shadowed);

      // Holding λ0 alone shadows only λ0: worm 1 still meets the stuck λ1.
      const std::vector<PinnedSlot> one{{first, 0}};
      const auto held_one = held_mask(graph->link_count(), 2, one);
      sim.set_held(held_one);
      const PassResult split = sim.run(specs);
      EXPECT_TRUE(split.worms[0].pinned_loss);
      EXPECT_TRUE(split.worms[1].fault_loss);
      EXPECT_FALSE(split.worms[1].pinned_loss);

      // Without holds the plan is live: both entrants are fault kills.
      Simulator bare(collection, config);
      const PassResult stuck = bare.run(specs);
      EXPECT_EQ(stuck.metrics.fault_kills, 2u);
      EXPECT_EQ(stuck.metrics.pinned_blocks, 0u);
    }
  }
}

TEST(SimulatorHeld, PrescanPassWithHeldChannelsMatchesReference) {
  // 40 disjoint 4-link chains, one worm each at t=0: every step carries
  // ≥ 32 singleton attempts, so the free-singleton prescan runs, and it
  // cannot see holds. Holds on some worms' channels (at links 0 and 2)
  // must still block them, and late same-channel worms die to occupants.
  constexpr NodeId kChains = 40;
  constexpr NodeId kChainNodes = 5;
  auto graph = std::make_shared<Graph>(kChains * kChainNodes, "chains");
  for (NodeId c = 0; c < kChains; ++c)
    for (NodeId u = 0; u + 1 < kChainNodes; ++u)
      graph->add_edge(c * kChainNodes + u, c * kChainNodes + u + 1);
  PathCollection collection(graph);
  for (NodeId c = 0; c < kChains; ++c) {
    std::vector<NodeId> nodes;
    for (NodeId u = 0; u < kChainNodes; ++u)
      nodes.push_back(c * kChainNodes + u);
    collection.add(Path::from_nodes(*graph, nodes));
  }
  SimConfig config;
  config.bandwidth = 2;
  std::vector<LaunchSpec> specs;
  std::vector<PinnedSlot> slots;
  for (PathId c = 0; c < kChains; ++c) {
    const auto wl = static_cast<Wavelength>(c % 2);
    const PathView path = collection.path(c);
    specs.push_back(spec(c, 0, wl, 3));
    if (c % 5 == 0) specs.push_back(spec(c, 1, wl, 3));  // meets an occupant
    if (c % 3 == 0) slots.push_back({path.link(2), wl});
    if (c % 7 == 1) slots.push_back({path.link(0), wl});
    if (c % 4 == 0)  // the other λ: held, but no worm uses it
      slots.push_back({path.link(1), static_cast<Wavelength>(1 - wl)});
  }
  const auto held = held_mask(graph->link_count(), config.bandwidth, slots);
  for (const SimdMode simd : {SimdMode::Auto, SimdMode::Off}) {
    config.simd = simd;
    Simulator sim(collection, config);
    sim.set_held(held);
    const PassResult fast = sim.run(specs);
    expect_matches_reference(collection, config, specs, slots, fast);
    EXPECT_GT(fast.metrics.pinned_blocks, 0u);
    EXPECT_GT(fast.metrics.killed, 0u);
    // Every attempt is a singleton group: one registry probe each, a hit
    // exactly when the entrant dies (a held channel or an occupant).
    const std::uint64_t losses =
        fast.metrics.killed + fast.metrics.pinned_blocks;
    EXPECT_EQ(fast.metrics.registry_probes, fast.metrics.worm_steps + losses);
    EXPECT_EQ(fast.metrics.registry_hits, losses);
  }
}

TEST(SimulatorLargeGraph, PackedKeysPastTwoToTheFifteenLinksMatchReference) {
  // A 92x92 mesh has 4 * 92 * 91 = 33,488 directed links, past 2^15: the
  // group key needs 16 link bits. Dimension-order routes between nodes of
  // the bottom rows use the highest link ids; 640 worms launched over 8
  // steps put far more than 32 attempts into each early step, so the
  // vectorized key build and the free-singleton prescan both run.
  constexpr std::uint32_t kSide = 92;
  const auto topo =
      std::make_shared<const MeshTopology>(make_mesh({kSide, kSide}));
  ASSERT_GT(topo->graph.link_count(), EdgeId{1} << 15);
  Rng rng(17);
  std::vector<std::pair<NodeId, NodeId>> requests;
  const auto bottom_node = [&] {
    const auto row =
        static_cast<std::uint32_t>(kSide - 12 + rng.next_below(12));
    const auto col = static_cast<std::uint32_t>(rng.next_below(kSide));
    return row * kSide + col;
  };
  for (int i = 0; i < 640; ++i) {
    const NodeId source = bottom_node();
    requests.emplace_back(source, bottom_node());
  }
  const PathCollection collection = mesh_collection(topo, requests);
  EdgeId top_link = 0;
  for (PathId p = 0; p < collection.size(); ++p)
    for (const EdgeId link : collection.path(p).links())
      top_link = std::max(top_link, link);
  ASSERT_GE(top_link, EdgeId{1} << 15);

  std::vector<LaunchSpec> specs;
  for (PathId p = 0; p < collection.size(); ++p)
    specs.push_back(spec(p, static_cast<SimTime>(rng.next_below(8)),
                         static_cast<Wavelength>(rng.next_below(2)),
                         2 + static_cast<std::uint32_t>(rng.next_below(4)),
                         static_cast<std::uint32_t>(rng.next_below(1000))));

  SimConfig base;
  base.bandwidth = 2;
  const auto run_against_reference = [&](const SimConfig& config) {
    for (const SimdMode simd : {SimdMode::Auto, SimdMode::Off}) {
      SimConfig mode = config;
      mode.simd = simd;
      Simulator sim(collection, mode);
      const PassResult fast = sim.run(specs);
      expect_matches_reference(collection, mode, specs, {}, fast);
      EXPECT_GT(fast.metrics.contentions, 0u);
    }
  };

  SCOPED_TRACE("serve-first");
  run_against_reference(base);
  {
    SCOPED_TRACE("priority");
    SimConfig config = base;
    config.rule = ContentionRule::Priority;
    run_against_reference(config);
  }
  {
    SCOPED_TRACE("full conversion");
    SimConfig config = base;
    config.rule = ContentionRule::Priority;
    config.conversion = ConversionMode::Full;
    run_against_reference(config);
  }
  {
    // An enabled plan whose only fault acts after the pass (lost acks)
    // sends every step through the scalar faulty key loop while leaving
    // outcomes comparable with the fault-free reference.
    SCOPED_TRACE("ack-drop fault plan");
    FaultConfig faults;
    faults.ack_drop_rate = 0.5;
    const FaultPlan plan(faults, 3);
    ASSERT_TRUE(plan.enabled());
    SimConfig config = base;
    config.faults = &plan;
    run_against_reference(config);
  }
  {
    // Live faults have no reference; the pass must still satisfy every
    // invariant and actually lose worms to them.
    SCOPED_TRACE("outage and stuck-wavelength fault plan");
    FaultConfig faults;
    faults.link_outage_rate = 0.2;
    faults.stuck_wavelength_rate = 0.05;
    const FaultPlan plan(faults, 5);
    SimConfig config = base;
    config.faults = &plan;
    config.record_trace = true;
    Simulator sim(collection, config);
    const PassResult result = sim.run(specs);
    EXPECT_GT(result.metrics.fault_kills, 0u);
    EXPECT_TRUE(validate_pass(collection, config, specs, result).ok());
    EXPECT_TRUE(validate_occupancy(collection, specs, result).ok());
  }
}

}  // namespace
}  // namespace opto
