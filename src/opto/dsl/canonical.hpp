// Canonical JSON form of a ScenarioSpec — schema "opto.scenario/1".
//
// The dump is byte-stable: object keys sort lexicographically
// (util/json_parse's sorted writer), 64-bit seeds serialize as decimal
// strings (JSON numbers are doubles and would round them), defaults are
// materialized, and mode-irrelevant sections are omitted entirely.
//
// The loader is not a second validator: it checks the envelope (schema,
// schema_version, name), lowers the rest into the `.opto` AST — scalar
// members become settings, objects become sections with their
// family/system/kind tag as the variant, numbers keep their source
// spelling — and runs validate(). One rule book serves both forms, so a
// JSON scenario is rejected exactly when its .opto twin is, with the same
// message at 1:1, and parse → dump → parse → dump is a byte-exact fixed
// point, which the scenario-smoke CI job and test_dsl_canonical enforce.
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

/// Inverse of canonical_text's document: lowers `doc` into a ScenarioAst
/// and validates it (any key order accepted; unknown keys, duplicate
/// keys and nulls rejected). `doc` must come from parse_json, whose
/// numbers carry their source spelling. `file` only labels the error.
bool from_scenario_json(const JsonValue& doc, const std::string& file,
                        ScenarioSpec& spec, DslError& error);

}  // namespace opto::dsl
