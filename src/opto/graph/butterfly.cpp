#include "opto/graph/butterfly.hpp"

#include <string>

#include "opto/util/assert.hpp"

namespace opto {
namespace {

ButterflyTopology make_bfly(std::uint32_t dim, bool wrap) {
  OPTO_ASSERT(dim >= 1 && dim <= 16);
  if (wrap) OPTO_ASSERT_MSG(dim >= 3, "wrap-around butterfly needs dim >= 3");

  ButterflyTopology topo;
  topo.dim = dim;
  topo.wrap = wrap;
  const std::uint64_t rows = topo.rows();
  const std::uint64_t node_count = static_cast<std::uint64_t>(topo.levels()) * rows;
  GraphBuilder graph(static_cast<NodeId>(node_count),
                     (wrap ? "wrap-butterfly-" : "butterfly-") +
                         std::to_string(dim));

  // Source levels are 0..dim-1 in both variants; each undirected edge has a
  // unique source level (for wrap this needs dim >= 3), so no duplicates.
  for (std::uint32_t level = 0; level < dim; ++level) {
    const std::uint32_t next = wrap ? (level + 1) % dim : level + 1;
    for (std::uint32_t row = 0; row < rows; ++row) {
      const NodeId from = topo.node_at(level, row);
      graph.add_edge(from, topo.node_at(next, row));
      graph.add_edge(from, topo.node_at(next, row ^ (1u << level)));
    }
  }
  topo.graph = std::move(graph).build();
  return topo;
}

}  // namespace

NodeId ButterflyTopology::node_at(std::uint32_t level, std::uint32_t row) const {
  OPTO_ASSERT(level < levels());
  OPTO_ASSERT(row < rows());
  return static_cast<NodeId>(static_cast<std::uint64_t>(level) * rows() + row);
}

std::uint32_t ButterflyTopology::level_of(NodeId node) const {
  return static_cast<std::uint32_t>(node / rows());
}

std::uint32_t ButterflyTopology::row_of(NodeId node) const {
  return static_cast<std::uint32_t>(node % rows());
}

ButterflyTopology make_butterfly(std::uint32_t dim) {
  return make_bfly(dim, /*wrap=*/false);
}

ButterflyTopology make_wrap_butterfly(std::uint32_t dim) {
  return make_bfly(dim, /*wrap=*/true);
}

}  // namespace opto
