#include "opto/rwa/schedule.hpp"

#include <algorithm>
#include <numeric>

#include "opto/par/parallel_for.hpp"
#include "opto/paths/path_collection.hpp"
#include "opto/rng/splitmix64.hpp"
#include "opto/util/assert.hpp"

namespace opto::rwa {

StrategyRunResult run_strategy_schedule(std::shared_ptr<const Graph> graph,
                                        std::span<const RwaRequest> requests,
                                        Strategy& strategy,
                                        const StrategyScheduleConfig& config) {
  OPTO_ASSERT(graph != nullptr && config.worm_length >= 1 &&
              config.max_rounds >= 1);
  StrategyRunResult result;
  result.requests = requests.size();

  std::vector<std::uint32_t> pending(requests.size());
  std::iota(pending.begin(), pending.end(), 0);
  std::vector<char> color_used(config.rwa.bandwidth, 0);
  // Shared with every other run on this graph, across calls and threads.
  const std::shared_ptr<const HopTable> routes = shared_hop_table(graph);

  for (std::uint32_t round = 1;
       round <= config.max_rounds && !pending.empty(); ++round) {
    strategy.begin(*routes, config.rwa, round);

    PathCollection collection(graph);
    std::vector<LaunchSpec> specs;
    std::vector<std::uint32_t> still_pending;
    for (const std::uint32_t uid : pending) {
      const RwaDecision decision = strategy.assign(requests[uid], uid);
      if (!decision.accepted) {
        still_pending.push_back(uid);
        continue;
      }
      OPTO_ASSERT(decision.routes.size() == decision.lambdas.size() &&
                  !decision.routes.empty());
      for (std::size_t i = 0; i < decision.routes.size(); ++i) {
        LaunchSpec spec;
        spec.path = collection.size();
        collection.add(decision.routes[i]);
        spec.start_time = 0;
        spec.wavelength = decision.lambdas[i];
        spec.priority = uid;
        spec.length = config.worm_length;
        specs.push_back(spec);
        color_used[decision.lambdas[i]] = 1;
      }
    }

    result.rounds = round;
    if (round == 1) {
      result.blocked_first_round = still_pending.size();
      result.blocking = requests.empty()
                            ? 0.0
                            : static_cast<double>(still_pending.size()) /
                                  static_cast<double>(requests.size());
    }

    if (!specs.empty()) {
      SimConfig sim_config;
      sim_config.bandwidth = config.rwa.bandwidth;
      Simulator sim(collection, sim_config);
      const PassResult pass = sim.run(specs);
      // A valid assignment is collision-free by construction; a lost
      // worm here means the strategy double-claimed a channel.
      OPTO_ASSERT_MSG(pass.metrics.delivered == specs.size(),
                      "RWA strategy produced a colliding assignment");
      result.makespan += pass.metrics.makespan + 1;
      result.worm_steps += pass.metrics.worm_steps;
    }
    pending = std::move(still_pending);
  }

  result.success = pending.empty();
  for (const char used : color_used)
    result.colors += static_cast<std::uint32_t>(used);
  return result;
}

namespace {

/// First-Fit over one fixed candidate per request: uid u routes on
/// member order[u] of the collection. Tracks the highest λ of the
/// current round for the baseline's colour count.
class FixedRouteFirstFit final : public Strategy {
 public:
  FixedRouteFirstFit(const PathCollection& collection,
                     std::span<const PathId> order)
      : collection_(collection), order_(order) {}

  StrategyKind kind() const override { return StrategyKind::FirstFit; }

  void begin(const HopTable& routes, const RwaConfig& config,
             std::uint32_t round) override {
    Strategy::begin(routes, config, round);
    top_lambda_ = 0;
  }

  RwaDecision assign(const RwaRequest&, std::uint32_t uid) override {
    const PathView route = collection_.path(order_[uid]);
    const auto lambda = first_fit(route);
    if (!lambda) return {};
    top_lambda_ = std::max(top_lambda_, *lambda);
    return accept(route, *lambda);
  }

  Wavelength top_lambda() const { return top_lambda_; }

 private:
  const PathCollection& collection_;
  std::span<const PathId> order_;
  Wavelength top_lambda_ = 0;
};

}  // namespace

StaticRwaResult run_static_rwa(const PathCollection& collection,
                               std::uint16_t bandwidth,
                               std::uint32_t worm_length) {
  OPTO_ASSERT(bandwidth >= 1);
  // Welsh-Powell order: conflict degree descending, ties by id.
  const std::vector<std::uint32_t> degree = collection.path_congestions();
  std::vector<PathId> order(collection.size());
  std::iota(order.begin(), order.end(), PathId{0});
  std::stable_sort(order.begin(), order.end(), [&degree](PathId a, PathId b) {
    return degree[a] > degree[b];
  });
  std::vector<RwaRequest> requests;
  requests.reserve(order.size());
  for (const PathId id : order) {
    const PathView member = collection.path(id);
    requests.push_back({member.source(), member.destination()});
  }

  StrategyScheduleConfig config;
  config.rwa.bandwidth = bandwidth;
  config.worm_length = worm_length;
  // Every round places its first pending request, so n rounds suffice.
  config.max_rounds = std::max(collection.size(), 1u);
  FixedRouteFirstFit strategy(collection, order);
  const StrategyRunResult run = run_strategy_schedule(
      collection.graph_ptr(), requests, strategy, config);

  StaticRwaResult result;
  result.success = run.success;
  result.batches = run.rounds;
  if (run.rounds > 0)
    result.colors = (run.rounds - 1) * bandwidth + strategy.top_lambda() + 1;
  result.total_time = run.makespan;
  result.worm_steps = run.worm_steps;
  return result;
}

StrategyAggregate run_strategy_trials(const InstanceFactory& factory,
                                      StrategyKind kind,
                                      const StrategyScheduleConfig& config,
                                      std::size_t trials,
                                      std::uint64_t base_seed) {
  struct Outcome {
    bool success = false;
    double blocking = 0.0;
    double rounds = 0.0;
    double makespan = 0.0;
    double colors = 0.0;
  };
  std::vector<Outcome> outcomes(trials);

  parallel_for_workers(0, trials, [&](IndexClaims& claims) {
    // One strategy per worker: begin() re-binds it each round, so reuse
    // across trials exercises the re-entrancy contract (the candidate memo
    // restarts cold at each trial's round 1 — trial graphs are
    // independently allocated, so address reuse must not alias them).
    // The hop table is not per worker: run_strategy_schedule takes the
    // one registered for the trial's graph.
    const std::unique_ptr<Strategy> strategy = make_strategy(kind);
    for (std::size_t trial; claims.next(trial);) {
      // Same per-trial seed derivation as benchsupport run_trials, so a
      // strategy trial t sees the same instance seed as a protocol
      // trial t (the head-to-head compares like with like).
      const std::uint64_t seed =
          splitmix64_once(base_seed + 0x9e3779b97f4a7c15ull * (trial + 1));
      auto [graph, requests] = factory(seed);
      StrategyScheduleConfig trial_config = config;
      trial_config.rwa.seed = seed ^ 0xabcdef;  // mirrors protocol.run(seed^…)
      const StrategyRunResult run = run_strategy_schedule(
          std::move(graph), requests, *strategy, trial_config);
      Outcome& outcome = outcomes[trial];
      outcome.success = run.success;
      outcome.blocking = run.blocking;
      if (!run.success) continue;
      outcome.rounds = static_cast<double>(run.rounds);
      outcome.makespan = static_cast<double>(run.makespan);
      outcome.colors = static_cast<double>(run.colors);
    }
  });

  // Sequential fold in trial order (byte-stable across OPTO_THREADS).
  StrategyAggregate aggregate;
  for (const Outcome& outcome : outcomes) {
    aggregate.blocking.add(outcome.blocking);
    if (!outcome.success) {
      ++aggregate.failures;
      continue;
    }
    aggregate.rounds.add(outcome.rounds);
    aggregate.makespan.add(outcome.makespan);
    aggregate.colors.add(outcome.colors);
  }
  aggregate.trials = trials;
  return aggregate;
}

}  // namespace opto::rwa
