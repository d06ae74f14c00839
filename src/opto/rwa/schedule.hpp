// Round driver for RWA strategies — the Trial-and-Failure analogue for
// the static side of the comparison (E19) — and the §1.2 static
// baseline (E10) run on it.
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

#include "opto/paths/path_collection.hpp"
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

/// The single-hop static RWA baseline of §1.2 ([3], [1], [32]): colour
/// the collection so that no two members sharing a directed link get
/// the same wavelength, then ship the colour classes as ⌈colours/B⌉
/// collision-free batches. It needs the whole collection up front,
/// which is exactly what Trial-and-Failure avoids.
struct StaticRwaResult {
  bool success = false;
  std::uint32_t colors = 0;
  std::uint32_t batches = 0;
  SimTime total_time = 0;  ///< Σ batch makespans (+1 each)
  std::uint64_t worm_steps = 0;
};

/// Runs the baseline on run_strategy_schedule: member p is a request
/// whose only candidate route is p itself, read in place. Requests are
/// admitted in Welsh-Powell order (descending path_congestions(), the
/// conflict degree; ties by id) and First-Fit picks λ from each round's
/// fresh band, so member p lands in round r on λ exactly when its greedy
/// colour is (r − 1)·B + λ: rounds are batches, and colours are
/// (rounds − 1)·B + the last round's highest λ + 1.
StaticRwaResult run_static_rwa(const PathCollection& collection,
                               std::uint16_t bandwidth,
                               std::uint32_t worm_length);

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
