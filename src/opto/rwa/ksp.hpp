// Yen-style k-shortest loopless routes over the directed-link graph.
//
// Routes are enumerated in the canonical total order
//   (length, lexicographic node sequence)
// exactly: every spur search returns the lexicographically smallest
// shortest path under the active node/link bans, and the next route is
// always the least of Yen's candidate list in that order, so the
// enumeration is a faithful walk of it (the brute-force oracle in
// tests/test_rwa_oracle.cpp checks this sequence-for-sequence). Determinism is load-bearing — every RWA
// strategy derives its candidate routes from this enumeration, so two
// runs of a strategy see identical candidates on any thread count.
#pragma once

#include <cstdint>
#include <vector>

#include "opto/graph/graph.hpp"

namespace opto::rwa {

/// Up to `k` shortest loopless routes from `source` to `destination` as
/// node sequences, in (length, lexicographic) order. Fewer are returned
/// when fewer exist; an unreachable destination yields none. A
/// source == destination request yields the single zero-length route.
std::vector<std::vector<NodeId>> k_shortest_routes(const Graph& graph,
                                                   NodeId source,
                                                   NodeId destination,
                                                   std::uint32_t k);

/// The first route of that order, exactly
/// `k_shortest_routes(graph, source, destination, k).front()` for any
/// k >= 1, or an empty route when `destination` is unreachable.
/// Allocates only the returned route.
std::vector<NodeId> shortest_route(const Graph& graph, NodeId source,
                                   NodeId destination);

}  // namespace opto::rwa
