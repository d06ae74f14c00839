#include "opto/graph/mesh.hpp"

#include <string>

#include "opto/util/assert.hpp"

namespace opto {

MeshTopology detail::make_grid(std::vector<std::uint32_t> sides, bool wrap) {
  OPTO_ASSERT(!sides.empty());
  std::uint64_t total = 1;
  for (std::uint32_t side : sides) {
    OPTO_ASSERT(side >= 1);
    if (wrap) OPTO_ASSERT_MSG(side >= 3, "torus side must be >= 3");
    total *= side;
  }
  OPTO_ASSERT_MSG(total <= (1ull << 31), "mesh too large");

  MeshTopology topo;
  topo.sides = std::move(sides);
  topo.wrap = wrap;
  std::string name = wrap ? "torus" : "mesh";
  for (std::uint32_t side : topo.sides) {
    name += '-';
    name += std::to_string(side);
  }

  // Each node links to its +1 neighbour in every dimension, dimension 0
  // first (the -1 neighbour is covered by the neighbour's own +1 edge);
  // on a torus the last coordinate wraps to 0. The neighbours are row-
  // major id arithmetic, so the edges are distinct without a check.
  const std::uint32_t dims = topo.dimensions();
  std::uint64_t edges = 0;
  for (std::uint32_t d = 0; d < dims; ++d) {
    const std::uint32_t side = topo.sides[d];
    if (side > 1) edges += total / side * (wrap ? side : side - 1);
  }
  std::vector<NodeId> targets;
  targets.reserve(2 * edges);
  std::vector<std::uint32_t> coords(dims, 0);
  for (NodeId node = 0; node < total; ++node) {
    std::uint64_t stride = total;
    for (std::uint32_t d = 0; d < dims; ++d) {
      const std::uint32_t side = topo.sides[d];
      stride /= side;
      if (side == 1 || (coords[d] + 1 == side && !wrap)) continue;
      const std::uint64_t next = coords[d] + 1 < side
                                     ? node + stride
                                     : node - (side - 1) * stride;
      targets.push_back(static_cast<NodeId>(next));
      targets.push_back(node);
    }
    // Advance row-major coordinates (last dimension fastest).
    for (std::uint32_t d = dims; d-- > 0;) {
      if (++coords[d] < topo.sides[d]) break;
      coords[d] = 0;
    }
  }
  OPTO_ASSERT(targets.size() == 2 * edges);
  topo.graph =
      Graph(std::move(name), static_cast<NodeId>(total), std::move(targets));
  return topo;
}

NodeId MeshTopology::node_at(std::span<const std::uint32_t> coords) const {
  OPTO_ASSERT(coords.size() == sides.size());
  std::uint64_t index = 0;
  for (std::size_t d = 0; d < sides.size(); ++d) {
    OPTO_ASSERT(coords[d] < sides[d]);
    index = index * sides[d] + coords[d];
  }
  return static_cast<NodeId>(index);
}

std::vector<std::uint32_t> MeshTopology::coords_of(NodeId node) const {
  std::vector<std::uint32_t> coords(sides.size(), 0);
  std::uint64_t rest = node;
  for (std::size_t d = sides.size(); d-- > 0;) {
    coords[d] = static_cast<std::uint32_t>(rest % sides[d]);
    rest /= sides[d];
  }
  OPTO_ASSERT(rest == 0);
  return coords;
}

MeshTopology make_mesh(std::vector<std::uint32_t> sides) {
  return detail::make_grid(std::move(sides), /*wrap=*/false);
}

MeshTopology make_torus(std::vector<std::uint32_t> sides) {
  return detail::make_grid(std::move(sides), /*wrap=*/true);
}

}  // namespace opto
