#include "opto/graph/mesh.hpp"

#include <string>

#include "opto/util/assert.hpp"

namespace opto {
namespace {

MeshTopology make_grid(std::vector<std::uint32_t> sides, bool wrap) {
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
  for (std::uint32_t side : topo.sides) name += "-" + std::to_string(side);
  topo.graph = Graph(static_cast<NodeId>(total), name);

  const std::uint32_t dims = topo.dimensions();
  std::vector<std::uint32_t> coords(dims, 0);
  std::vector<std::uint32_t> next(dims, 0);
  for (NodeId node = 0; node < total; ++node) {
    // Connect each node to its +1 neighbor in every dimension (the -1
    // neighbor is covered by the neighbor's own +1 edge).
    for (std::uint32_t d = 0; d < dims; ++d) {
      const std::uint32_t side = topo.sides[d];
      if (side == 1) continue;
      if (coords[d] + 1 < side) {
        next = coords;
        ++next[d];
        topo.graph.add_edge(node, topo.node_at(next));
      } else if (wrap) {
        next = coords;
        next[d] = 0;
        topo.graph.add_edge(node, topo.node_at(next));
      }
    }
    // Advance row-major coordinates (last dimension fastest).
    for (std::uint32_t d = dims; d-- > 0;) {
      if (++coords[d] < topo.sides[d]) break;
      coords[d] = 0;
    }
  }
  return topo;
}

}  // namespace

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
  return make_grid(std::move(sides), /*wrap=*/false);
}

MeshTopology make_torus(std::vector<std::uint32_t> sides) {
  return make_grid(std::move(sides), /*wrap=*/true);
}

}  // namespace opto
