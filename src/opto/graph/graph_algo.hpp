// Basic graph algorithms used by path selection and topology validation.
#pragma once

#include <cstdint>
#include <vector>

#include "opto/graph/graph.hpp"

namespace opto {

inline constexpr std::uint32_t kUnreachable = ~std::uint32_t{0};

/// BFS hop distances from `source` (kUnreachable for disconnected nodes).
std::vector<std::uint32_t> bfs_distances(const Graph& graph, NodeId source);

/// BFS shortest path source→target as a node sequence (empty if
/// unreachable). Ties are broken toward the smallest next node id, which
/// makes the path system canonical — the property the node-symmetric
/// experiments rely on for reproducibility.
std::vector<NodeId> bfs_path(const Graph& graph, NodeId source, NodeId target);

/// The canonical BFS tree behind bfs_path: parents[v] precedes v on its
/// path from `source` (parents[source] == source; kInvalidNode when v is
/// unreachable).
std::vector<NodeId> bfs_parents(const Graph& graph, NodeId source);

/// The path source→target read off `parents` (empty if unreachable).
std::vector<NodeId> tree_path(const std::vector<NodeId>& parents,
                              NodeId source, NodeId target);

bool is_connected(const Graph& graph);

/// Exact diameter via all-sources BFS. Intended for the moderate graph
/// sizes used in experiments (≤ ~100k nodes · edges product).
std::uint32_t diameter(const Graph& graph);

/// Eccentricity of one node (max BFS distance).
std::uint32_t eccentricity(const Graph& graph, NodeId source);

}  // namespace opto
