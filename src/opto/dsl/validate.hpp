// AST → ScenarioSpec validation, and the one-call text and file loaders.
//
// Validation is where meaning lives: section/setting names, enum
// spellings, numeric ranges, mode compatibility and resource budgets are
// all checked here, each failure reported as a DslError anchored at the
// offending token (`file:line:col: message`). It is the only validator:
// canonical JSON is lowered into the same AST (canonical.hpp), so both
// scenario forms meet the same rules with the same messages. The golden
// diagnostic tests pin these messages byte-for-byte, so treat message
// text as API.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "opto/dsl/ast.hpp"
#include "opto/dsl/spec.hpp"
#include "opto/sim/occupancy.hpp"

namespace opto::dsl {

/// Fixed-schedule / engine Δ range; the "out-of-range Δ" diagnostic.
inline constexpr std::uint64_t kMaxDelta = 1u << 24;

/// Cap of every integer the spec stores as uint32 (edge endpoints, route
/// nodes, pinned link and λ, launch path, λ, priority and length), so no
/// value is narrowed on load.
inline constexpr std::uint64_t kMaxU32Field = 0xffffffffu;
/// Cap of a launch start: the largest integer a JSON double holds exactly.
inline constexpr std::uint64_t kMaxLaunchStart = std::uint64_t{1} << 53;
/// Cap of a pass scenario's fault epoch, 2^52 − 1.
inline constexpr std::uint64_t kMaxFaultEpoch = ~std::uint64_t{0} >> 12;

/// Node count of the graph the topology's builder makes (converter
/// lists are per-node).
std::uint64_t topology_nodes(const TopologySpec& topo);

/// Directed link count of the graph the topology's builder makes: equals
/// Graph::link_count() of the built topology.
std::uint64_t topology_links(const TopologySpec& topo);

/// Longest BFS route on the graph the topology's builder makes: the
/// family's diameter, or nodes − 1 for an explicit topology. With
/// topology_nodes it sizes the engine's route table (route_table_fits).
std::uint64_t topology_diameter(const TopologySpec& topo);

/// Empty when the scenario's topology_links × protocol bandwidth fits
/// kMaxChannels (sim/occupancy.hpp), else the diagnostic text. The
/// protocol bandwidth is the only one a scenario has, so this bounds every
/// mode's simulator.
std::string channel_budget_error(const ScenarioSpec& spec);

/// Validates a parsed program into a fully-materialized spec. On failure
/// returns false with a source-located `error`.
bool validate(const ScenarioAst& ast, ScenarioSpec& spec, DslError& error);

/// Parses + validates `.opto` source in one step.
bool load_opto_text(std::string_view source, const std::string& file,
                    ScenarioSpec& spec, DslError& error);

/// Loads either form: canonical JSON (first non-space byte '{') or
/// `.opto` source. JSON errors are located at 1:1 (the JSON parser
/// reports byte offsets in its message instead).
bool load_scenario_text(std::string_view source, const std::string& file,
                        ScenarioSpec& spec, DslError& error);

/// How load_scenario_file ended.
enum class LoadStatus : std::uint8_t { Ok, Unreadable, Invalid };

/// Reads the file at `path` and loads it with load_scenario_text. A file
/// that cannot be read is Unreadable, with `error` = "cannot read file"
/// at `path`:1:1; a parse or validation failure is Invalid, with its
/// located diagnostic.
LoadStatus load_scenario_file(const std::string& path, ScenarioSpec& spec,
                              DslError& error);

}  // namespace opto::dsl
