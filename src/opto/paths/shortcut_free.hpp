// Short-cut freeness (§1.1).
//
// A collection is short-cut free if no (directed) subpath of one path is
// shortcut by a subpath of another path: whenever paths p and q both
// visit u before v, the u→v stretches must have equal length. The paper
// notes the sufficient condition "no two paths meet, separate, and meet
// again"; both predicates are provided.
//
// The exact check is quadratic in the collection size (with per-pair work
// linear in common nodes) — intended for validating generators and for
// tests, not for hot loops.
#pragma once

#include <cstdint>
#include <optional>

#include "opto/paths/path_collection.hpp"

namespace opto {

/// Describes one violation, for diagnostics.
struct ShortcutViolation {
  PathId shortcut_path;   ///< path whose subpath is longer (gets shortcut)
  PathId via_path;        ///< path providing the shorter subpath
  NodeId from;
  NodeId to;
  std::uint32_t long_length;
  std::uint32_t short_length;
};

/// First violation found, or nullopt if the collection is short-cut free.
std::optional<ShortcutViolation> find_shortcut(const PathCollection& collection);

inline bool is_shortcut_free(const PathCollection& collection) {
  return !find_shortcut(collection).has_value();
}

/// True iff paths p and q meet, separate, and meet again (visit two
/// disjoint maximal common stretches). The paper's sufficient condition:
/// if no pair does, the collection is short-cut free.
bool meet_separate_meet(const Graph& graph, PathView p, PathView q);

}  // namespace opto
