// Round driver for RWA strategies — the Trial-and-Failure analogue for
// the static side of the comparison (E19).
//
// Each round the strategy sees a fresh wavelength band [0, B) and the
// still-unserved requests in uid order; accepted requests are simulated
// as one collision-free pass (worm model, same Simulator the protocol
// uses — the pass both measures the round's makespan and *proves* the
// assignment valid: any (link, λ) double-claim would surface as a
// contention loss and trip the driver's assert). Blocked requests retry
// next round. Blocking percentage is the classic first-offer metric:
// the fraction of requests the strategy could not place in round 1.
//
// Determinism: the driver is sequential over rounds and requests; all
// randomness inside a strategy is counter-based (strategy.hpp), and each
// simulated pass runs sequentially on one thread, so its output cannot
// depend on the pool width (DESIGN.md §7) — every result field is a pure
// function of (graph, requests, config).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "opto/rwa/strategy.hpp"
#include "opto/sim/simulator.hpp"
#include "opto/util/stats.hpp"

namespace opto::rwa {

struct StrategyScheduleConfig {
  RwaConfig rwa;
  std::uint32_t worm_length = 1;  ///< L, flits per worm
  std::uint32_t max_rounds = 64;
};

struct StrategyRunResult {
  bool success = false;      ///< all requests served within max_rounds
  std::uint32_t rounds = 0;  ///< rounds consumed (success) or max_rounds
  std::uint64_t requests = 0;
  std::uint64_t blocked_first_round = 0;
  double blocking = 0.0;  ///< blocked_first_round / requests (0 if none)
  std::uint32_t colors = 0;   ///< distinct wavelength indices used, any round
  SimTime makespan = 0;       ///< Σ per-round simulated makespans
  std::uint64_t worm_steps = 0;
};

/// Runs `strategy` over `requests` to completion (or max_rounds).
/// Request uid = index into `requests`; admission order is uid order
/// within every round.
StrategyRunResult run_strategy_schedule(std::shared_ptr<const Graph> graph,
                                        std::span<const RwaRequest> requests,
                                        Strategy& strategy,
                                        const StrategyScheduleConfig& config);

/// Builds one trial's instance: the graph and its request list.
/// Deterministic in the seed (experiment-harness contract).
using InstanceFactory =
    std::function<std::pair<std::shared_ptr<const Graph>,
                            std::vector<RwaRequest>>(std::uint64_t seed)>;

/// Cross-trial aggregate, mirroring benchsupport's TrialAggregate: the
/// per-trial seeds derive exactly like run_trials' and trials run in
/// parallel with a sequential fold, so tables are byte-stable across
/// OPTO_THREADS.
struct StrategyAggregate {
  SampleSet blocking;
  SampleSet rounds;
  SampleSet makespan;
  SampleSet colors;
  std::uint32_t failures = 0;  ///< trials hitting max_rounds
  std::size_t trials = 0;

  double success_rate() const {
    return trials == 0 ? 0.0
                       : 1.0 - static_cast<double>(failures) /
                                   static_cast<double>(trials);
  }
};

StrategyAggregate run_strategy_trials(const InstanceFactory& factory,
                                      StrategyKind kind,
                                      const StrategyScheduleConfig& config,
                                      std::size_t trials,
                                      std::uint64_t base_seed);

}  // namespace opto::rwa
