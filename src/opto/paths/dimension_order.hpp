// Dimension-order (e-cube) path selection on meshes and tori — the
// classical strategy behind Theorem 1.6: correct one coordinate at a time,
// dimension 0 first. On tori the shorter wrap direction is taken
// (positive direction on ties).
//
// Dimension-order path systems on meshes are short-cut free: two routes
// that separate in some dimension can only rejoin in a strictly later
// dimension, and both traverse equal-length monotone segments in between.
#pragma once

#include "opto/graph/mesh.hpp"
#include "opto/paths/path.hpp"
#include "opto/paths/path_collection.hpp"

namespace opto {

/// Node sequence of the dimension-order route.
std::vector<NodeId> dimension_order_route(const MeshTopology& topo,
                                          NodeId source, NodeId destination);

Path dimension_order_path(const MeshTopology& topo, NodeId source,
                          NodeId destination);

/// Appends the dimension-order path to `collection` (built on
/// `topo.graph`) straight into its arena, with no per-path allocation.
void add_dimension_order_path(PathCollection& collection,
                              const MeshTopology& topo, NodeId source,
                              NodeId destination);

}  // namespace opto
