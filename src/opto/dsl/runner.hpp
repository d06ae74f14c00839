// Scenario execution: ScenarioSpec in, model-result JSON out.
//
// run_scenario builds the repo's native objects (CollectionFactory /
// EngineConfig / FuzzCase) from a validated spec and feeds the shared
// run core (run_core.hpp). run_builtin runs one of the hand-coded C++
// equivalents of the committed example scenarios through the same core;
// the scenario-smoke CI job byte-compares the two outputs, which is the
// DSL's end-to-end equivalence proof.
#pragma once

#include <string>
#include <vector>

#include "opto/dsl/spec.hpp"
#include "opto/testlib/fuzz_case.hpp"
#include "opto/util/json_parse.hpp"

namespace opto::dsl {

/// Runs a validated scenario. Returns false (with `error`) only for
/// semantic problems validation cannot see statically — e.g. pass-mode
/// routes whose consecutive nodes are not adjacent.
bool run_scenario(const ScenarioSpec& spec, JsonValue& result,
                  std::string& error);

/// Sorted-key serialization of a result document plus trailing newline —
/// the bytes the equivalence gate compares.
std::string result_text(const JsonValue& result);

/// Pass-mode spec → the fuzzer's FuzzCase. This is how opto_fuzz
/// replays a saved case (.opto or .json) and how run_scenario runs a
/// pass.
testlib::FuzzCase to_fuzz_case(const ScenarioSpec& spec);

/// FuzzCase → pass-mode spec, the inverse of to_fuzz_case: for a
/// well-formed case, to_fuzz_case(from_fuzz_case(c)) == c, and
/// canonical_text of the result is the file opto_fuzz writes.
ScenarioSpec from_fuzz_case(const testlib::FuzzCase& fuzz);

/// Hand-coded scenario equivalents, keyed by name.
std::vector<std::string> builtin_names();
bool run_builtin(const std::string& name, JsonValue& result,
                 std::string& error);

}  // namespace opto::dsl
