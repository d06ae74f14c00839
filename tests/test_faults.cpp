// Deterministic fault injection (sim/faults.hpp): replay determinism,
// stuck-wavelength occupancy semantics, outage/corruption/ack-drop
// mechanics, RetryPolicy backoff bounds, and the differential guarantee
// that a zero-fault FaultPlan is bit-identical to no plan at all.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <vector>

#include "opto/core/result_json.hpp"
#include "opto/core/trial_and_failure.hpp"
#include "opto/paths/path_collection.hpp"
#include "opto/sim/faults.hpp"
#include "opto/sim/simulator.hpp"

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

void expect_traces_equal(const Trace& a, const Trace& b) {
  ASSERT_EQ(a.events().size(), b.events().size());
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    const TraceEvent& ea = a.events()[i];
    const TraceEvent& eb = b.events()[i];
    EXPECT_EQ(ea.time, eb.time) << "event " << i;
    EXPECT_EQ(ea.kind, eb.kind) << "event " << i;
    EXPECT_EQ(ea.worm, eb.worm) << "event " << i;
    EXPECT_EQ(ea.link, eb.link) << "event " << i;
    EXPECT_EQ(ea.wavelength, eb.wavelength) << "event " << i;
    EXPECT_EQ(ea.other, eb.other) << "event " << i;
  }
}

void expect_results_equal(const PassResult& a, const PassResult& b) {
  ASSERT_EQ(a.worms.size(), b.worms.size());
  for (std::size_t i = 0; i < a.worms.size(); ++i) {
    EXPECT_EQ(a.worms[i].status, b.worms[i].status) << "worm " << i;
    EXPECT_EQ(a.worms[i].truncated, b.worms[i].truncated) << "worm " << i;
    EXPECT_EQ(a.worms[i].corrupted, b.worms[i].corrupted) << "worm " << i;
    EXPECT_EQ(a.worms[i].fault_loss, b.worms[i].fault_loss) << "worm " << i;
    EXPECT_EQ(a.worms[i].finish_time, b.worms[i].finish_time) << "worm " << i;
    EXPECT_EQ(a.worms[i].blocked_at_link, b.worms[i].blocked_at_link);
    EXPECT_EQ(a.worms[i].blocked_by, b.worms[i].blocked_by);
  }
  EXPECT_EQ(a.metrics.launched, b.metrics.launched);
  EXPECT_EQ(a.metrics.delivered, b.metrics.delivered);
  EXPECT_EQ(a.metrics.killed, b.metrics.killed);
  EXPECT_EQ(a.metrics.fault_kills, b.metrics.fault_kills);
  EXPECT_EQ(a.metrics.truncated, b.metrics.truncated);
  EXPECT_EQ(a.metrics.truncated_arrivals, b.metrics.truncated_arrivals);
  EXPECT_EQ(a.metrics.corrupted, b.metrics.corrupted);
  EXPECT_EQ(a.metrics.corrupted_arrivals, b.metrics.corrupted_arrivals);
  EXPECT_EQ(a.metrics.contentions, b.metrics.contentions);
  EXPECT_EQ(a.metrics.retunes, b.metrics.retunes);
  EXPECT_EQ(a.metrics.makespan, b.metrics.makespan);
  EXPECT_EQ(a.metrics.worm_steps, b.metrics.worm_steps);
  EXPECT_EQ(a.metrics.link_busy_steps, b.metrics.link_busy_steps);
  EXPECT_EQ(a.metrics.steps, b.metrics.steps);
  expect_traces_equal(a.trace, b.trace);
}

// -------------------------------------------------------------- FaultPlan

TEST(FaultPlan, QueriesAreDeterministicAcrossInstances) {
  FaultConfig config;
  config.link_outage_rate = 0.5;
  config.coupler_outage_rate = 0.3;
  config.stuck_wavelength_rate = 0.4;
  config.corruption_rate = 0.2;
  config.ack_drop_rate = 0.3;
  FaultPlan a(config, 42);
  FaultPlan b(config, 42);
  a.set_epoch(7);
  b.set_epoch(7);
  for (EdgeId link = 0; link < 64; ++link) {
    for (SimTime t = 0; t < 8; ++t) {
      EXPECT_EQ(a.link_down(link, t), b.link_down(link, t));
      EXPECT_EQ(a.coupler_down(link, t), b.coupler_down(link, t));
    }
    EXPECT_EQ(a.wavelength_stuck(link, 0), b.wavelength_stuck(link, 0));
    EXPECT_EQ(a.corrupts_flit(link, link), b.corrupts_flit(link, link));
    EXPECT_EQ(a.drops_ack(link), b.drops_ack(link));
  }
}

TEST(FaultPlan, EpochResamplesTheFaultPattern) {
  FaultConfig config;
  config.stuck_wavelength_rate = 0.5;
  FaultPlan plan(config, 9);
  plan.set_epoch(1);
  std::vector<bool> epoch1;
  for (EdgeId link = 0; link < 256; ++link)
    epoch1.push_back(plan.wavelength_stuck(link, 0));
  plan.set_epoch(2);
  bool any_difference = false;
  for (EdgeId link = 0; link < 256; ++link)
    any_difference |= epoch1[link] != plan.wavelength_stuck(link, 0);
  EXPECT_TRUE(any_difference);
  // And the rate is roughly respected (256 coin flips at p = 0.5).
  const auto stuck_count = static_cast<std::size_t>(
      std::count(epoch1.begin(), epoch1.end(), true));
  EXPECT_GT(stuck_count, 64u);
  EXPECT_LT(stuck_count, 192u);
}

TEST(FaultPlan, OutageRespectsDutyCycle) {
  FaultConfig config;
  config.link_outage_rate = 1.0;
  config.outage_period = 8;
  config.outage_duration = 3;
  FaultPlan plan(config, 5);
  for (EdgeId link = 0; link < 16; ++link) {
    int down = 0;
    for (SimTime t = 0; t < 8; ++t) down += plan.link_down(link, t) ? 1 : 0;
    EXPECT_EQ(down, 3) << "link " << link;
    // Periodic: the window repeats every period.
    for (SimTime t = 0; t < 8; ++t)
      EXPECT_EQ(plan.link_down(link, t), plan.link_down(link, t + 8));
  }
}

TEST(FaultPlan, ZeroRatesNeverFire) {
  FaultPlan plan(FaultConfig{}, 123);
  EXPECT_FALSE(plan.enabled());
  for (EdgeId link = 0; link < 32; ++link) {
    EXPECT_FALSE(plan.link_down(link, 0));
    EXPECT_FALSE(plan.coupler_down(link, 0));
    EXPECT_FALSE(plan.wavelength_stuck(link, 0));
    EXPECT_FALSE(plan.corrupts_flit(link, link));
    EXPECT_FALSE(plan.drops_ack(link));
  }
}

// ------------------------------------------------------ simulator faults

TEST(SimulatorFaults, ZeroFaultPlanIsBitIdenticalToNoPlan) {
  const auto graph = make_chain(8);
  const auto collection = chain_bundle(graph, 0, 7, 6);
  std::vector<LaunchSpec> specs;
  for (PathId p = 0; p < 6; ++p)
    specs.push_back(spec(p, p % 3, static_cast<Wavelength>(p % 2), 3));

  SimConfig config;
  config.bandwidth = 2;
  config.record_trace = true;
  Simulator plain(collection, config);
  const auto baseline = plain.run(specs);

  const FaultPlan zero_plan(FaultConfig{}, 77);
  SimConfig faulted_config = config;
  faulted_config.faults = &zero_plan;
  Simulator with_plan(collection, faulted_config);
  const auto with_zero_plan = with_plan.run(specs);

  expect_results_equal(baseline, with_zero_plan);
  EXPECT_EQ(with_zero_plan.metrics.fault_kills, 0u);
  EXPECT_EQ(with_zero_plan.metrics.corrupted, 0u);
}

TEST(SimulatorFaults, SameSeedReplaysIdenticalEventTrace) {
  const auto graph = make_chain(10);
  const auto collection = chain_bundle(graph, 0, 9, 8);
  std::vector<LaunchSpec> specs;
  for (PathId p = 0; p < 8; ++p)
    specs.push_back(spec(p, p % 4, static_cast<Wavelength>(p % 2), 2));

  FaultConfig fault_config;
  fault_config.link_outage_rate = 0.3;
  fault_config.outage_period = 8;
  fault_config.outage_duration = 4;
  fault_config.stuck_wavelength_rate = 0.2;
  fault_config.corruption_rate = 0.2;

  FaultPlan plan(fault_config, 2024);
  plan.set_epoch(3);
  SimConfig config;
  config.bandwidth = 2;
  config.record_trace = true;
  config.faults = &plan;
  Simulator sim(collection, config);
  const auto first = sim.run(specs);
  const auto second = sim.run(specs);
  expect_results_equal(first, second);

  // A fresh plan instance keyed identically replays the same events.
  FaultPlan replay(fault_config, 2024);
  replay.set_epoch(3);
  SimConfig replay_config = config;
  replay_config.faults = &replay;
  Simulator replay_sim(collection, replay_config);
  expect_results_equal(first, replay_sim.run(specs));

  // The plan actually fired (otherwise this test is vacuous).
  EXPECT_GT(first.metrics.fault_kills + first.metrics.corrupted, 0u);
}

TEST(SimulatorFaults, StuckWavelengthEliminatesFixedEntrant) {
  const auto graph = make_chain(2);  // single link 0->1, id 0
  const auto collection = chain_bundle(graph, 0, 1, 1);

  // Find a keying where wavelength 0 is stuck on link 0 but wavelength 1
  // is free — the stuck set is pseudorandom, so scan base seeds.
  FaultConfig fault_config;
  fault_config.stuck_wavelength_rate = 0.5;
  std::uint64_t seed = 0;
  bool found = false;
  for (; seed < 256 && !found; ++seed) {
    const FaultPlan probe(fault_config, seed);
    found = probe.wavelength_stuck(0, 0) && !probe.wavelength_stuck(0, 1);
  }
  ASSERT_TRUE(found);
  const FaultPlan plan(fault_config, seed - 1);

  SimConfig config;
  config.bandwidth = 2;
  config.faults = &plan;
  Simulator sim(collection, config);
  const auto result = sim.run(
      std::vector<LaunchSpec>{spec(0, 0, 0, 2), spec(0, 1, 1, 2)});

  // Wavelength 0 is permanently held: its entrant dies at the link with
  // no witness worm; wavelength 1 sails through.
  EXPECT_EQ(result.worms[0].status, WormStatus::Killed);
  EXPECT_TRUE(result.worms[0].fault_loss);
  EXPECT_EQ(result.worms[0].blocked_by, kInvalidWorm);
  EXPECT_EQ(result.worms[0].finish_time, 0);
  EXPECT_TRUE(result.worms[1].delivered_intact());
  EXPECT_EQ(result.metrics.fault_kills, 1u);
  EXPECT_EQ(result.metrics.killed, 0u);
  EXPECT_EQ(result.metrics.contentions, 0u);
}

TEST(SimulatorFaults, StuckWavelengthIsHeldForTheWholePass) {
  const auto graph = make_chain(2);
  const auto collection = chain_bundle(graph, 0, 1, 1);
  FaultConfig fault_config;
  fault_config.stuck_wavelength_rate = 1.0;  // every (link, wl) stuck
  const FaultPlan plan(fault_config, 1);
  SimConfig config;
  config.faults = &plan;
  Simulator sim(collection, config);
  // Entrants spread across time: a stuck wavelength never frees up, unlike
  // a worm-held claim that releases after its flits drain.
  const auto result = sim.run(std::vector<LaunchSpec>{
      spec(0, 0, 0, 1), spec(0, 10, 0, 1), spec(0, 100, 0, 1)});
  EXPECT_EQ(result.metrics.fault_kills, 3u);
  EXPECT_EQ(result.metrics.delivered, 0u);
  for (const auto& worm : result.worms)
    EXPECT_EQ(worm.status, WormStatus::Killed);
}

TEST(SimulatorFaults, StuckWavelengthRetunedAroundByConvertingRouter) {
  const auto graph = make_chain(2);
  const auto collection = chain_bundle(graph, 0, 1, 1);
  FaultConfig fault_config;
  fault_config.stuck_wavelength_rate = 0.5;
  std::uint64_t seed = 0;
  bool found = false;
  for (; seed < 256 && !found; ++seed) {
    const FaultPlan probe(fault_config, seed);
    found = probe.wavelength_stuck(0, 0) && !probe.wavelength_stuck(0, 1);
  }
  ASSERT_TRUE(found);
  const FaultPlan plan(fault_config, seed - 1);

  SimConfig config;
  config.bandwidth = 2;
  config.conversion = ConversionMode::Full;
  config.faults = &plan;
  Simulator sim(collection, config);
  const auto result = sim.run(std::vector<LaunchSpec>{spec(0, 0, 0, 2)});
  // The converting coupler sees wavelength 0 permanently held and retunes
  // the worm onto the free wavelength 1 instead of killing it.
  EXPECT_TRUE(result.worms[0].delivered_intact());
  EXPECT_EQ(result.metrics.retunes, 1u);
  EXPECT_EQ(result.metrics.fault_kills, 0u);
}

TEST(SimulatorFaults, DarkLinkEliminatesLikeServeFirstLoss) {
  const auto graph = make_chain(5);
  const auto collection = chain_bundle(graph, 0, 4, 2);
  FaultConfig fault_config;
  fault_config.link_outage_rate = 1.0;
  fault_config.outage_period = 4;
  fault_config.outage_duration = 4;  // permanently dark
  const FaultPlan plan(fault_config, 3);
  SimConfig config;
  config.faults = &plan;
  Simulator sim(collection, config);
  const auto result =
      sim.run(std::vector<LaunchSpec>{spec(0, 0, 0, 2), spec(1, 5, 0, 2)});
  EXPECT_EQ(result.metrics.fault_kills, 2u);
  EXPECT_EQ(result.metrics.killed, 0u);
  EXPECT_EQ(result.metrics.delivered, 0u);
  // Killed at the first link, at the injection step, with no witness.
  EXPECT_EQ(result.worms[0].blocked_at_link, 0u);
  EXPECT_EQ(result.worms[0].finish_time, 0);
  EXPECT_EQ(result.worms[1].finish_time, 5);
  EXPECT_EQ(result.worms[0].blocked_by, kInvalidWorm);
  EXPECT_TRUE(result.worms[0].fault_loss);
}

TEST(SimulatorFaults, LinkOutageOnlyKillsDuringDownWindow) {
  const auto graph = make_chain(2);
  const auto collection = chain_bundle(graph, 0, 1, 1);
  FaultConfig fault_config;
  fault_config.link_outage_rate = 1.0;
  fault_config.outage_period = 16;
  fault_config.outage_duration = 4;
  const FaultPlan plan(fault_config, 11);
  // Pick one step inside and one outside the down window via the plan's
  // own query (the phase is pseudorandom).
  SimTime down_at = -1, up_at = -1;
  for (SimTime t = 0; t < 16; ++t) {
    if (plan.link_down(0, t) && down_at < 0) down_at = t;
    if (!plan.link_down(0, t) && up_at < 0) up_at = t;
  }
  ASSERT_GE(down_at, 0);
  ASSERT_GE(up_at, 0);

  SimConfig config;
  config.faults = &plan;
  Simulator sim(collection, config);
  const auto killed = sim.run(std::vector<LaunchSpec>{spec(0, down_at, 0, 1)});
  EXPECT_EQ(killed.metrics.fault_kills, 1u);
  const auto delivered = sim.run(std::vector<LaunchSpec>{spec(0, up_at, 0, 1)});
  EXPECT_TRUE(delivered.worms[0].delivered_intact());
}

TEST(SimulatorFaults, FailedCouplerEliminatesEntrants) {
  const auto graph = make_chain(4);
  const auto collection = chain_bundle(graph, 0, 3, 1);
  FaultConfig fault_config;
  fault_config.coupler_outage_rate = 1.0;
  fault_config.outage_period = 2;
  fault_config.outage_duration = 2;  // every coupler permanently down
  const FaultPlan plan(fault_config, 8);
  SimConfig config;
  config.faults = &plan;
  Simulator sim(collection, config);
  const auto result = sim.run(std::vector<LaunchSpec>{spec(0, 2, 0, 3)});
  EXPECT_EQ(result.metrics.fault_kills, 1u);
  EXPECT_EQ(result.worms[0].blocked_at_link, 0u);
  EXPECT_TRUE(result.worms[0].fault_loss);
}

TEST(SimulatorFaults, CorruptionVoidsDeliveryButKeepsOccupancy) {
  const auto graph = make_chain(5);
  const auto collection = chain_bundle(graph, 0, 4, 1);
  FaultConfig fault_config;
  fault_config.corruption_rate = 1.0;
  const FaultPlan plan(fault_config, 21);
  const std::vector<LaunchSpec> specs{spec(0, 0, 0, 3)};

  SimConfig clean_config;
  Simulator clean_sim(collection, clean_config);
  const auto baseline = clean_sim.run(specs);
  ASSERT_TRUE(baseline.worms[0].delivered_intact());

  SimConfig config;
  config.faults = &plan;
  Simulator sim(collection, config);
  const auto result = sim.run(specs);
  // The worm still traverses the full path on the fault-free timetable —
  // corruption voids the payload, it does not stop the flits.
  EXPECT_EQ(result.worms[0].status, WormStatus::Delivered);
  EXPECT_EQ(result.worms[0].finish_time, baseline.worms[0].finish_time);
  EXPECT_EQ(result.metrics.link_busy_steps, baseline.metrics.link_busy_steps);
  EXPECT_FALSE(result.worms[0].delivered_intact());
  EXPECT_TRUE(result.worms[0].corrupted);
  EXPECT_TRUE(result.worms[0].fault_loss);
  EXPECT_EQ(result.metrics.delivered, 0u);
  EXPECT_EQ(result.metrics.corrupted_arrivals, 1u);
  // One corruption event, at the first link entered (rate 1 fires
  // immediately and the flag is sticky).
  EXPECT_EQ(result.metrics.corrupted, 1u);
}

// ------------------------------------------------------- protocol faults

ProtocolResult run_protocol(const PathCollection& collection,
                            const ProtocolConfig& config, SimTime delta,
                            std::uint64_t seed) {
  FixedSchedule schedule(delta);
  TrialAndFailure protocol(collection, config, schedule);
  return protocol.run(seed);
}

TEST(ProtocolFaults, ZeroFaultConfigMatchesDefaultRunExactly) {
  const auto graph = make_chain(6);
  const auto collection = chain_bundle(graph, 0, 5, 5);
  ProtocolConfig config;
  config.bandwidth = 2;
  config.worm_length = 3;
  config.max_rounds = 64;
  const auto baseline = run_protocol(collection, config, 8, 99);

  ProtocolConfig tweaked = config;
  tweaked.faults = FaultConfig{};  // explicit zero-fault plan
  tweaked.retry.growth = 8.0;      // inert without fault losses
  tweaked.retry.max_backoff = 64.0;
  const auto with_plan = run_protocol(collection, tweaked, 8, 99);

  std::ostringstream a, b;
  write_result_json(a, baseline);
  write_result_json(b, with_plan);
  EXPECT_EQ(a.str(), b.str());
  for (const RoundReport& round : with_plan.rounds) {
    EXPECT_DOUBLE_EQ(round.backoff, 1.0);
    EXPECT_EQ(round.fault_losses, 0u);
    EXPECT_EQ(round.ack_drops, 0u);
  }
}

TEST(ProtocolFaults, RunsReplayBitIdenticallyUnderFaults) {
  const auto graph = make_chain(6);
  const auto collection = chain_bundle(graph, 0, 5, 5);
  ProtocolConfig config;
  config.bandwidth = 2;
  config.worm_length = 3;
  config.max_rounds = 32;
  config.faults.link_outage_rate = 0.4;
  config.faults.outage_period = 8;
  config.faults.outage_duration = 4;
  config.faults.corruption_rate = 0.1;
  config.faults.ack_drop_rate = 0.2;
  const auto first = run_protocol(collection, config, 8, 7);
  const auto second = run_protocol(collection, config, 8, 7);
  std::ostringstream a, b;
  write_result_json(a, first);
  write_result_json(b, second);
  EXPECT_EQ(a.str(), b.str());
}

TEST(ProtocolFaults, BackoffGrowsBoundedAndResetsDelta) {
  const auto graph = make_chain(4);
  const auto collection = chain_bundle(graph, 0, 3, 2);
  ProtocolConfig config;
  config.max_rounds = 6;
  config.faults.link_outage_rate = 1.0;
  config.faults.outage_period = 4;
  config.faults.outage_duration = 4;  // nothing ever delivers
  config.retry.growth = 2.0;
  config.retry.max_backoff = 4.0;
  const auto result = run_protocol(collection, config, 8, 13);
  ASSERT_FALSE(result.success);
  ASSERT_EQ(result.rounds.size(), 6u);
  // Every loss is fault-caused, so the multiplier doubles per round until
  // the cap: 1, 2, 4, 4, ... and Δ_t widens in lockstep over the
  // schedule's fixed Δ = 8.
  const double expected_backoff[] = {1.0, 2.0, 4.0, 4.0, 4.0, 4.0};
  for (std::size_t i = 0; i < result.rounds.size(); ++i) {
    const RoundReport& round = result.rounds[i];
    EXPECT_DOUBLE_EQ(round.backoff, expected_backoff[i]) << "round " << i;
    EXPECT_EQ(round.delta,
              static_cast<SimTime>(8 * expected_backoff[i]))
        << "round " << i;
    EXPECT_LE(round.backoff, config.retry.max_backoff);
    EXPECT_EQ(round.fault_losses, round.active_before);
    EXPECT_EQ(round.contention_losses, 0u);
  }
}

TEST(ProtocolFaults, BackoffRelaxesAfterCleanRounds) {
  // Outages fault only the chain's first link, with a 50% duty cycle:
  // rounds alternate between faulty and clean as delays shift the worm
  // across the window, so both branches of the policy are exercised.
  const auto graph = make_chain(3);
  const auto collection = chain_bundle(graph, 0, 2, 3);
  ProtocolConfig config;
  config.max_rounds = 64;
  config.faults.link_outage_rate = 0.5;
  config.faults.outage_period = 8;
  config.faults.outage_duration = 4;
  config.retry.growth = 2.0;
  config.retry.decay = 0.5;
  config.retry.max_backoff = 8.0;
  // The fault pattern re-keys per round (epoch), so whether a given run
  // interleaves faulty and clean rounds depends on the seed — scan for one
  // that exercises both branches of the policy.
  bool saw_growth = false, saw_decay = false;
  for (std::uint64_t seed = 0; seed < 64 && !(saw_growth && saw_decay);
       ++seed) {
    saw_growth = saw_decay = false;
    const auto result = run_protocol(collection, config, 4, seed);
    for (std::size_t i = 1; i < result.rounds.size(); ++i) {
      const double prev = result.rounds[i - 1].backoff;
      const double curr = result.rounds[i].backoff;
      EXPECT_GE(curr, 1.0);
      EXPECT_LE(curr, config.retry.max_backoff);
      saw_growth |= curr > prev;
      saw_decay |= curr < prev;
    }
  }
  EXPECT_TRUE(saw_growth);
  EXPECT_TRUE(saw_decay);
}

TEST(ProtocolFaults, DroppedAcksForceDuplicateDeliveries) {
  const auto graph = make_chain(4);
  const auto collection = chain_bundle(graph, 0, 3, 1);
  ProtocolConfig config;
  config.max_rounds = 5;
  config.faults.ack_drop_rate = 1.0;
  const auto result = run_protocol(collection, config, 4, 23);
  // The worm delivers every round but its ack never returns.
  EXPECT_FALSE(result.success);
  EXPECT_EQ(result.rounds_used, 5u);
  EXPECT_GE(result.duplicate_deliveries, 4u);
  for (const RoundReport& round : result.rounds) {
    EXPECT_EQ(round.acknowledged, 0u);
    EXPECT_EQ(round.ack_drops, round.delivered);
  }
}

TEST(ProtocolFaults, SimulatedAcksAlsoTraverseTheFaultedNetwork) {
  const auto graph = make_chain(4);
  const auto collection = chain_bundle(graph, 0, 3, 1);
  ProtocolConfig config;
  config.max_rounds = 4;
  config.ack_mode = AckMode::Simulated;
  config.faults.link_outage_rate = 1.0;
  config.faults.outage_period = 2;
  config.faults.outage_duration = 2;  // network fully dark both ways
  const auto result = run_protocol(collection, config, 4, 29);
  EXPECT_FALSE(result.success);
  for (const RoundReport& round : result.rounds) {
    EXPECT_EQ(round.delivered, 0u);
    EXPECT_EQ(round.fault_losses, 1u);
  }
}

TEST(ProtocolFaults, FaultAndContentionLossesAreAccountedSeparately) {
  // Two worms share one wavelength on one link: one contention loss per
  // round is guaranteed; stuck lambdas add fault losses on top.
  const auto graph = make_chain(2);
  const auto collection = chain_bundle(graph, 0, 1, 2);
  ProtocolConfig config;
  config.max_rounds = 24;
  config.worm_length = 4;
  config.faults.stuck_wavelength_rate = 0.3;
  const auto result = run_protocol(collection, config, 1, 31);
  std::uint64_t fault = 0, contention = 0;
  for (const RoundReport& round : result.rounds) {
    fault += round.fault_losses;
    contention += round.contention_losses;
    EXPECT_EQ(round.fault_losses,
              round.forward.fault_kills + round.forward.corrupted_arrivals);
    EXPECT_EQ(round.contention_losses,
              round.forward.killed + round.forward.truncated_arrivals);
    // Conservation: every launched worm is delivered, lost to contention,
    // or lost to a fault.
    EXPECT_EQ(round.forward.launched,
              round.forward.delivered + round.fault_losses +
                  round.contention_losses);
  }
  EXPECT_GT(fault, 0u);
  EXPECT_GT(contention, 0u);
}

}  // namespace
}  // namespace opto
