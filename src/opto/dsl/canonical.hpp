// Canonical JSON form of a ScenarioSpec — schema "opto.scenario/1".
//
// The dump is byte-stable: object keys sort lexicographically
// (util/json_parse's sorted writer), 64-bit seeds serialize as decimal
// strings (JSON numbers are doubles and would round them), defaults are
// materialized, and mode-irrelevant sections are omitted entirely. The
// loader is strict — unknown keys are errors — so
// parse → dump → parse → dump is a byte-exact fixed point, which the
// scenario-smoke CI job and test_dsl_canonical enforce.
#pragma once

#include <string>

#include "opto/dsl/lexer.hpp"
#include "opto/dsl/spec.hpp"
#include "opto/util/json_parse.hpp"

namespace opto::dsl {

inline constexpr const char* kScenarioSchema = "opto.scenario";
inline constexpr int kScenarioSchemaVersion = 1;

/// Sorted keys plus one trailing newline — the bytes committed as
/// examples/golden/*.json.
std::string canonical_text(const ScenarioSpec& spec);

/// Strict inverse of canonical_text's document (any key order accepted;
/// unknown keys rejected). `file` only labels the error.
bool from_scenario_json(const JsonValue& doc, const std::string& file,
                        ScenarioSpec& spec, DslError& error);

}  // namespace opto::dsl
