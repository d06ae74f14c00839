#include "opto/paths/dimension_order.hpp"

#include "opto/util/assert.hpp"

namespace opto {
namespace {

/// Calls `hop(node)` for every node after `source` on the dimension-order
/// route to `destination`. Coordinates are read off the row-major node
/// ids (last dimension fastest), so no coordinate vector is built.
template <class Hop>
void for_each_hop(const MeshTopology& topo, NodeId source,
                  NodeId destination, Hop&& hop) {
  OPTO_ASSERT(source < topo.graph.node_count() &&
              destination < topo.graph.node_count());
  NodeId at = source;
  std::uint64_t stride = topo.graph.node_count();
  for (std::uint32_t d = 0; d < topo.dimensions(); ++d) {
    const std::uint32_t side = topo.sides[d];
    stride /= side;
    auto coord = static_cast<std::uint32_t>(at / stride % side);
    const auto goal = static_cast<std::uint32_t>(destination / stride % side);
    // The direction holds for the whole dimension: on tori the shorter
    // wrap direction (ties resolved toward +1), on meshes toward the goal.
    const std::uint32_t forward = (goal + side - coord) % side;  // +1 steps
    const bool up = topo.wrap ? forward <= side - forward : goal > coord;
    const std::uint64_t wrap_jump = (side - 1) * stride;
    while (coord != goal) {
      if (up) {
        at = static_cast<NodeId>(coord + 1 == side ? at - wrap_jump
                                                   : at + stride);
        coord = coord + 1 == side ? 0 : coord + 1;
      } else {
        at = static_cast<NodeId>(coord == 0 ? at + wrap_jump : at - stride);
        coord = (coord == 0 ? side : coord) - 1;
      }
      hop(at);
    }
  }
  OPTO_ASSERT(at == destination);
}

}  // namespace

std::vector<NodeId> dimension_order_route(const MeshTopology& topo,
                                          NodeId source, NodeId destination) {
  std::vector<NodeId> route{source};
  for_each_hop(topo, source, destination,
               [&route](NodeId node) { route.push_back(node); });
  return route;
}

Path dimension_order_path(const MeshTopology& topo, NodeId source,
                          NodeId destination) {
  const auto route = dimension_order_route(topo, source, destination);
  return Path::from_nodes(topo.graph, route);
}

void add_dimension_order_path(PathCollection& collection,
                              const MeshTopology& topo, NodeId source,
                              NodeId destination) {
  OPTO_ASSERT(&collection.graph() == &topo.graph);
  collection.add_walk(source, [&](auto to) {
    for_each_hop(topo, source, destination, to);
  });
}

}  // namespace opto
