// Scenario execution: ScenarioSpec in, native objects and model-result
// JSON out.
//
// The builders below are the one path from a validated spec to the
// repo's native objects (Graph, CollectionFactory, ScheduleFactory,
// ProtocolConfig, EngineConfig, the RWA strategy config). run_scenario
// feeds them to the shared run core (run_core.hpp), and the anchor
// benches (E1, E15, E17, E19) build every cell of their grids with them
// from a copy of their committed examples/<stem>.opto spec, so a bench
// cell and `opto_run --run` of that scenario cannot build different
// objects.
#pragma once

#include <memory>
#include <string>

#include "opto/benchsupport/experiment.hpp"
#include "opto/dsl/spec.hpp"
#include "opto/engine/engine.hpp"
#include "opto/rwa/schedule.hpp"
#include "opto/testlib/fuzz_case.hpp"
#include "opto/util/json_parse.hpp"

namespace opto::dsl {

/// The graph the topology's builder makes (a fresh one per call).
std::shared_ptr<const Graph> build_graph(const TopologySpec& topo);

/// Trials-mode path collection per trial seed: the declared path system
/// over the declared topology, with the declared workload drawn from
/// Rng(seed).
CollectionFactory make_factory(const ScenarioSpec& spec);

/// Strategy-mode instance per trial seed: the graph is built once, the
/// request list redraws from the declared workload with the same Rng
/// sequence the bfs path factory uses — trial t of a strategy run and
/// trial t of a Trial-and-Failure run see the same request multiset.
rwa::InstanceFactory make_instance_factory(const ScenarioSpec& spec);

/// The declared Δ-schedule (paper constants, fixed Δ, no delay, adaptive).
ScheduleFactory make_schedule(const ScenarioSpec& spec);

/// Protocol knobs plus the fault plan, when a faults block is declared.
ProtocolConfig make_protocol(const ScenarioSpec& spec);

/// Strategy round-driver knobs: B, L and the round cap from the protocol
/// block, k and the multipath split from the strategy block.
rwa::StrategyScheduleConfig make_strategy_config(const ScenarioSpec& spec);

/// Streaming-engine config; `arrivals` is scaled by REPRO_SCALE and the
/// warmup is arrivals / warmup_divisor.
EngineConfig make_engine_config(const ScenarioSpec& spec);

/// Runs a validated scenario. Returns false (with `error`) only for
/// semantic problems validation cannot see statically — e.g. pass-mode
/// routes whose consecutive nodes are not adjacent.
bool run_scenario(const ScenarioSpec& spec, JsonValue& result,
                  std::string& error);

/// Sorted-key serialization of a result document plus trailing newline —
/// the bytes `opto_run --run` writes.
std::string result_text(const JsonValue& result);

/// Pass-mode spec → the fuzzer's FuzzCase. This is how opto_fuzz
/// replays a saved case (.opto or .json) and how run_scenario runs a
/// pass.
testlib::FuzzCase to_fuzz_case(const ScenarioSpec& spec);

/// FuzzCase → pass-mode spec, the inverse of to_fuzz_case: for a
/// well-formed case, to_fuzz_case(from_fuzz_case(c)) == c, and
/// canonical_text of the result is the file opto_fuzz writes.
ScenarioSpec from_fuzz_case(const testlib::FuzzCase& fuzz);

}  // namespace opto::dsl
