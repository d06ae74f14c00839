// Property tests for the RWA strategy layer (DESIGN.md §11):
//   * safety — across every strategy, no two accepted routes in a round
//     ever share a (link, wavelength) channel, wavelengths stay inside
//     the band, and routes connect their request's endpoints;
//   * Least-Used vs First-Fit — pinned, locally-verified instances
//     covering the full relationship: the common case where the two
//     coincide, an instance where spreading strictly wins, and the
//     committed counterexamples where packing wins (the bound is a
//     tendency, not a theorem, and the test refuses to overclaim);
//   * Random-Fit determinism — the keyed Philox draw is independent of
//     what else is in the batch, and whole trial aggregates are
//     byte-identical run-to-run and equal to a sequential re-fold, which
//     is what makes OPTO_THREADS and batch shape unobservable.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "opto/graph/fattree.hpp"
#include "opto/graph/graph.hpp"
#include "opto/rng/rng.hpp"
#include "opto/rng/splitmix64.hpp"
#include "opto/rwa/ksp.hpp"
#include "opto/rwa/schedule.hpp"
#include "opto/rwa/strategy.hpp"

namespace opto::rwa {
namespace {

/// Random connected-ish instance: a spanning chain plus Bernoulli
/// chords, and a request list over random endpoint pairs.
std::pair<Graph, std::vector<RwaRequest>> random_instance(
    std::uint64_t seed) {
  Rng rng = Rng::stream(0xbadcafe, seed);
  const NodeId nodes = static_cast<NodeId>(4 + rng.next_below(9));
  GraphBuilder builder(nodes);
  for (NodeId i = 0; i + 1 < nodes; ++i) builder.add_edge(i, i + 1);
  for (NodeId u = 0; u < nodes; ++u)
    for (NodeId v = u + 2; v < nodes; ++v)
      if (rng.next_bernoulli(0.2)) builder.add_edge(u, v);
  Graph graph = std::move(builder).build();
  std::vector<RwaRequest> requests;
  const std::uint64_t count = 2 + rng.next_below(11);
  for (std::uint64_t r = 0; r < count; ++r)
    requests.push_back(
        RwaRequest{static_cast<NodeId>(rng.next_below(nodes)),
                   static_cast<NodeId>(rng.next_below(nodes))});
  return {std::move(graph), std::move(requests)};
}

TEST(RwaProperties, AcceptedRoutesNeverShareAChannel) {
  for (std::uint64_t instance = 0; instance < 40; ++instance) {
    const auto [graph, requests] = random_instance(instance);
    const HopTable routes(graph);
    RwaConfig config;
    config.bandwidth = static_cast<std::uint16_t>(1 + instance % 3);
    config.candidates = 2 + instance % 2;
    config.split_ways = 2;
    config.seed = splitmix64_once(instance);
    for (const StrategyKind kind : all_strategy_kinds()) {
      const auto strategy = make_strategy(kind);
      for (std::uint32_t round = 1; round <= 3; ++round) {
        strategy->begin(routes, config, round);
        std::set<std::pair<EdgeId, Wavelength>> claimed;
        for (std::uint32_t uid = 0; uid < requests.size(); ++uid) {
          const RwaDecision decision =
              strategy->assign(requests[uid], uid);
          if (!decision.accepted) continue;
          ASSERT_EQ(decision.routes.size(), decision.lambdas.size());
          ASSERT_FALSE(decision.routes.empty());
          for (std::size_t i = 0; i < decision.routes.size(); ++i) {
            const PathView route = decision.routes[i];
            EXPECT_EQ(route.source(), requests[uid].source);
            EXPECT_EQ(route.destination(), requests[uid].destination);
            EXPECT_LT(decision.lambdas[i], config.bandwidth);
            for (const EdgeId link : route.links())
              EXPECT_TRUE(
                  claimed.insert({link, decision.lambdas[i]}).second)
                  << to_string(kind) << " double-claimed (link " << link
                  << ", λ" << decision.lambdas[i] << ") on instance "
                  << instance << " round " << round << " uid " << uid;
          }
        }
      }
    }
  }
}

/// Runs one strategy on one instance seed through the round driver at
/// the given band and returns the result.
StrategyRunResult run_one(StrategyKind kind, std::uint64_t instance,
                          std::uint16_t bandwidth) {
  auto [graph, requests] = random_instance(instance);
  StrategyScheduleConfig config;
  config.rwa.bandwidth = bandwidth;
  config.rwa.candidates = 3;
  config.rwa.seed = splitmix64_once(instance);
  config.worm_length = 2;
  config.max_rounds = 16;
  const auto strategy = make_strategy(kind);
  return run_strategy_schedule(
      std::make_shared<Graph>(std::move(graph)), requests, *strategy,
      config);
}

TEST(RwaProperties, LeastUsedVersusFirstFitOnPinnedInstances) {
  // "Least-Used never beats/loses to First-Fit" is NOT a theorem in
  // either direction, so this test pins concrete instances (found by an
  // exhaustive scan over the random_instance stream, B ∈ {1,2,3}) and
  // asserts the exact verified relationship on each:
  //   * instances 0–16 at B=2: the two policies coincide on every
  //     observable (the common case on small instances);
  //   * instance 41 at B=2: spreading wins — Least-Used serves everyone
  //     in round 1 where First-Fit blocks one request into round 2;
  //   * instance 17 at B=2: packing wins — the mirror-image instance,
  //     committed so nobody "fixes" the zoo toward a false universal
  //     bound;
  //   * instance 124 at B=3: First-Fit finishes with a smaller color
  //     count, the counterexample to "Least-Used uses no more of the
  //     band".
  for (std::uint64_t instance = 0; instance < 17; ++instance) {
    const StrategyRunResult ff = run_one(StrategyKind::FirstFit, instance, 2);
    const StrategyRunResult lu = run_one(StrategyKind::LeastUsed, instance, 2);
    EXPECT_EQ(lu.colors, ff.colors) << "instance " << instance;
    EXPECT_EQ(lu.blocked_first_round, ff.blocked_first_round)
        << "instance " << instance;
    EXPECT_EQ(lu.rounds, ff.rounds) << "instance " << instance;
  }

  const StrategyRunResult ff41 = run_one(StrategyKind::FirstFit, 41, 2);
  const StrategyRunResult lu41 = run_one(StrategyKind::LeastUsed, 41, 2);
  EXPECT_EQ(lu41.blocked_first_round, 0u);
  EXPECT_EQ(ff41.blocked_first_round, 1u);
  EXPECT_LT(lu41.rounds, ff41.rounds);

  const StrategyRunResult ff17 = run_one(StrategyKind::FirstFit, 17, 2);
  const StrategyRunResult lu17 = run_one(StrategyKind::LeastUsed, 17, 2);
  EXPECT_EQ(ff17.blocked_first_round, 0u);
  EXPECT_EQ(lu17.blocked_first_round, 1u);
  EXPECT_LT(ff17.rounds, lu17.rounds);

  const StrategyRunResult ff124 = run_one(StrategyKind::FirstFit, 124, 3);
  const StrategyRunResult lu124 = run_one(StrategyKind::LeastUsed, 124, 3);
  EXPECT_EQ(ff124.colors, 2u);
  EXPECT_EQ(lu124.colors, 3u);
}

TEST(RwaProperties, RandomFitDrawIgnoresTheRestOfTheBatch) {
  // The λ picked for a request depends only on (seed, round, uid) and
  // the free set on its own route — serving unrelated (link-disjoint)
  // requests first must not move the draw. Hosts under different edge
  // switches of a fat tree give disjoint first-hop routes.
  const FatTreeTopology topo = make_fat_tree(4);
  RwaConfig config;
  config.bandwidth = 4;
  config.seed = 77;
  const RwaRequest probe{topo.hosts[0], topo.hosts[1]};  // same edge switch
  const std::uint32_t probe_uid = 9;

  const HopTable routes(topo.graph);
  const auto strategy = make_strategy(StrategyKind::RandomFit);
  strategy->begin(routes, config, 1);
  const RwaDecision alone = strategy->assign(probe, probe_uid);
  ASSERT_TRUE(alone.accepted);
  // A decision's routes are views into the strategy: keep a copy past
  // the next begin().
  const std::vector<Path> alone_routes(alone.routes.begin(),
                                       alone.routes.end());

  strategy->begin(routes, config, 1);
  // Different pod entirely: no shared directed link with the probe.
  const RwaDecision unrelated =
      strategy->assign(RwaRequest{topo.hosts[4], topo.hosts[5]}, 0);
  ASSERT_TRUE(unrelated.accepted);
  const RwaDecision crowded = strategy->assign(probe, probe_uid);
  ASSERT_TRUE(crowded.accepted);

  EXPECT_EQ(alone.lambdas, crowded.lambdas);
  EXPECT_EQ(alone_routes, std::vector<Path>(crowded.routes.begin(),
                                            crowded.routes.end()));
}

TEST(RwaProperties, TrialAggregatesAreByteStableAndMatchASequentialFold) {
  // run_strategy_trials runs trials across the global thread pool; its
  // aggregate must be bit-identical to a sequential re-derivation with
  // the same per-trial seeds (the splitmix64 derivation run_trials
  // uses), and to a second parallel run. This is the in-process face of
  // the OPTO_THREADS∈{1,4} byte-equality the E19 bench gate checks.
  const auto factory = [](std::uint64_t seed) {
    auto [graph, requests] = random_instance(seed % 7);
    return std::make_pair(
        std::shared_ptr<const Graph>(
            std::make_shared<Graph>(std::move(graph))),
        std::move(requests));
  };
  StrategyScheduleConfig config;
  config.rwa.bandwidth = 2;
  config.rwa.candidates = 2;
  config.worm_length = 2;
  config.max_rounds = 16;
  const std::size_t trials = 24;
  const std::uint64_t base_seed = 4242;

  for (const StrategyKind kind :
       {StrategyKind::RandomFit, StrategyKind::Valiant}) {
    const StrategyAggregate first =
        run_strategy_trials(factory, kind, config, trials, base_seed);
    const StrategyAggregate second =
        run_strategy_trials(factory, kind, config, trials, base_seed);
    EXPECT_EQ(first.blocking.samples(), second.blocking.samples());
    EXPECT_EQ(first.rounds.samples(), second.rounds.samples());
    EXPECT_EQ(first.makespan.samples(), second.makespan.samples());
    EXPECT_EQ(first.colors.samples(), second.colors.samples());
    EXPECT_EQ(first.failures, second.failures);

    // Sequential re-fold with the exact seed derivation.
    StrategyAggregate expected;
    const auto strategy = make_strategy(kind);
    for (std::size_t trial = 0; trial < trials; ++trial) {
      const std::uint64_t seed =
          splitmix64_once(base_seed + 0x9e3779b97f4a7c15ull * (trial + 1));
      auto [graph, requests] = factory(seed);
      StrategyScheduleConfig trial_config = config;
      trial_config.rwa.seed = seed ^ 0xabcdef;
      const StrategyRunResult run = run_strategy_schedule(
          std::move(graph), requests, *strategy, trial_config);
      expected.blocking.add(run.blocking);
      if (!run.success) {
        ++expected.failures;
        continue;
      }
      expected.rounds.add(static_cast<double>(run.rounds));
      expected.makespan.add(static_cast<double>(run.makespan));
      expected.colors.add(static_cast<double>(run.colors));
    }
    EXPECT_EQ(first.blocking.samples(), expected.blocking.samples());
    EXPECT_EQ(first.rounds.samples(), expected.rounds.samples());
    EXPECT_EQ(first.makespan.samples(), expected.makespan.samples());
    EXPECT_EQ(first.colors.samples(), expected.colors.samples());
    EXPECT_EQ(first.failures, expected.failures);
  }
}

}  // namespace
}  // namespace opto::rwa
