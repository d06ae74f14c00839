// FuzzCase — a fully self-contained, serializable description of one
// differential-fuzzing input: topology, path collection, simulator
// configuration (including converting couplers and an optional fault
// plan), and the launch schedule.
//
// The canonical JSON form (sorted keys, trailing newline; written and
// read with util/json_parse) is the interchange format of the whole
// fuzzing pipeline: the generator's output, opto_fuzz's minimized repro
// files, and the committed tests/corpus/ regression cases are all this
// one schema ("opto.fuzz.case/1"). 64-bit seeds are serialized as
// decimal strings — JSON numbers are doubles and would silently round
// them.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "opto/paths/path_collection.hpp"
#include "opto/sim/faults.hpp"
#include "opto/sim/simulator.hpp"
#include "opto/util/json_parse.hpp"

namespace opto::testlib {

struct FuzzCase {
  // Provenance: which generator stream produced this case. Replayed
  // repro files keep these so a minimized case still names its origin.
  std::uint64_t seed = 0;
  std::uint64_t index = 0;

  // Topology: node count plus undirected edges (each becomes the usual
  // pair of directed optical links).
  NodeId node_count = 1;
  std::vector<std::pair<NodeId, NodeId>> edges;

  // Paths as node sequences (simple; consecutive nodes adjacent).
  std::vector<std::vector<NodeId>> paths;

  ContentionRule rule = ContentionRule::ServeFirst;
  TiePolicy tie = TiePolicy::KillAll;
  std::uint16_t bandwidth = 1;
  ConversionMode conversion = ConversionMode::None;
  std::vector<char> converters;  ///< per-node flags; Sparse mode only

  // Optional fault plan, keyed exactly like sim/faults.hpp.
  bool has_faults = false;
  FaultConfig faults;
  std::uint64_t fault_seed = 0;
  std::uint64_t fault_epoch = 0;

  /// Held (link, wavelength) channels, fed to Simulator::set_held (via
  /// held_mask) and reference_run — the streaming engine's established
  /// connections as the fuzzer exercises them. Links are directed ids (2
  /// per edge).
  std::vector<PinnedSlot> pinned;

  std::vector<LaunchSpec> specs;
};

/// Structural validity: everything build_case() (or the simulator)
/// would otherwise OPTO_ASSERT on, checked up front so hostile or
/// hand-edited repro files fail with a message instead of an abort.
/// On failure returns false and, when `error` is non-null, names the
/// first violation.
bool well_formed(const FuzzCase& fuzz, std::string* error = nullptr);

/// A materialized case. `config.faults` points at `plan` (when the case
/// carries faults), so the struct is non-copyable and lives on the heap.
struct BuiltCase {
  std::shared_ptr<const Graph> graph;
  PathCollection collection;
  FaultPlan plan;
  SimConfig config;

  BuiltCase() = default;
  BuiltCase(const BuiltCase&) = delete;
  BuiltCase& operator=(const BuiltCase&) = delete;
};

/// Materializes a well-formed case (asserts well_formed()).
std::unique_ptr<BuiltCase> build_case(const FuzzCase& fuzz);

JsonValue case_to_json(const FuzzCase& fuzz);
std::optional<FuzzCase> case_from_json(const JsonValue& value,
                                       std::string* error = nullptr);

/// Canonical serialization: sorted object keys, one trailing newline.
/// Byte-stable across platforms and runs; the corpus replay test and
/// the generator-determinism test compare these bytes directly.
std::string canonical_json(const FuzzCase& fuzz);

/// Parses a case document (the inverse of canonical_json, though any
/// key order is accepted on input).
std::optional<FuzzCase> parse_case(std::string_view text,
                                   std::string* error = nullptr);

}  // namespace opto::testlib
