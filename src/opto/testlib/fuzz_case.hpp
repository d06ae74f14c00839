// FuzzCase — a fully self-contained description of one differential-
// fuzzing input: topology, path collection, simulator configuration
// (including converting couplers and an optional fault plan), and the
// launch schedule. The generator, the shrinker and the differ share it.
//
// On disk a case is a pass-mode scenario ("opto.scenario/1"): opto_fuzz
// writes canonical_text(dsl::from_fuzz_case(c)) and reads any .opto or
// .json scenario back through dsl::to_fuzz_case (dsl/runner.hpp). The
// committed anchors are examples/repros/*.opto.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "opto/paths/path_collection.hpp"
#include "opto/sim/faults.hpp"
#include "opto/sim/simulator.hpp"

namespace opto::testlib {

struct FuzzCase {
  // Provenance: which generator stream produced this case. Replayed
  // repro files keep these so a minimized case still names its origin.
  std::uint64_t seed = 0;
  std::uint64_t index = 0;

  // Topology: node count plus undirected edges (each becomes the usual
  // pair of directed optical links).
  NodeId node_count = 2;
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

  bool operator==(const FuzzCase&) const = default;
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

}  // namespace opto::testlib
