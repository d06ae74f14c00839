// A plain Yen k-shortest-routes search, kept as an independent reference
// for rwa::k_shortest_routes. It shares no code or scratch with the
// library: every spur runs a full reverse BFS under its bans into fresh
// arrays, every spur of every accepted route is searched, and candidates
// sit in a std::set ordered by (length, lexicographic node sequence).
// Slow on purpose; test and fuzz code only.
#pragma once

#include <cstdint>
#include <vector>

#include "opto/graph/graph.hpp"

namespace opto::testlib {

/// Up to `k` shortest loopless routes source → destination as node
/// sequences in (length, lexicographic) order: the contract of
/// rwa::k_shortest_routes.
std::vector<std::vector<NodeId>> reference_k_shortest_routes(
    const Graph& graph, NodeId source, NodeId destination, std::uint32_t k);

}  // namespace opto::testlib
