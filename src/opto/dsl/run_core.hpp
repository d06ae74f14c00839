// Run core behind `opto_run --run`.
//
// The DSL runner (runner.cpp) builds factories/configs from a
// ScenarioSpec with the same builders the anchor benches use, and feeds
// them to these four functions, which run them and write the
// model-result JSON.
//
// The result document ("opto.scenario.result/1") contains only
// deterministic model-level values: no wall-clock fields, no engine
// instrumentation counters. Every value is invariant under the pool
// width (OPTO_THREADS, DESIGN.md §7).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "opto/benchsupport/experiment.hpp"
#include "opto/engine/engine.hpp"
#include "opto/rwa/schedule.hpp"
#include "opto/testlib/fuzz_case.hpp"
#include "opto/util/json_parse.hpp"

namespace opto::dsl::detail {

/// Closed experiment: REPRO_SCALE-scaled trials of Trial-and-Failure
/// over factory-built collections (benchsupport run_trials semantics,
/// including its per-trial seed derivation).
JsonValue run_closed(const CollectionFactory& factory,
                     const ScheduleFactory& schedule_factory,
                     const ProtocolConfig& config, std::size_t base_trials,
                     std::uint64_t seed, const std::string& label);

/// Closed experiment over a static RWA strategy instead of the
/// Trial-and-Failure protocol (rwa/schedule.hpp round driver, same
/// per-trial seed derivation as run_closed).
JsonValue run_strategy_closed(const rwa::InstanceFactory& factory,
                              rwa::StrategyKind kind,
                              const rwa::StrategyScheduleConfig& config,
                              std::size_t base_trials, std::uint64_t seed,
                              const std::string& label);

/// Streaming engine run; `config.arrivals`/`warmup` must already be
/// scaled by the caller (make_engine_config does, like the E17 bench).
JsonValue run_engine(std::shared_ptr<const Graph> graph,
                     const EngineConfig& config, std::uint64_t seed,
                     const std::string& label);

/// One raw simulator pass over a well-formed FuzzCase.
JsonValue run_pass(const testlib::FuzzCase& fuzz, const std::string& label);

}  // namespace opto::dsl::detail
