#include "opto/graph/hypercube.hpp"

#include <string>

#include "opto/util/assert.hpp"

namespace opto {

Graph make_hypercube(std::uint32_t dim) {
  OPTO_ASSERT(dim >= 1 && dim <= 20);
  const NodeId count = NodeId{1} << dim;
  GraphBuilder graph(count, "hypercube-" + std::to_string(dim));
  for (NodeId u = 0; u < count; ++u) {
    for (std::uint32_t bit = 0; bit < dim; ++bit) {
      const NodeId v = hypercube_neighbor(u, bit);
      if (u < v) graph.add_edge(u, v);
    }
  }
  return std::move(graph).build();
}

}  // namespace opto
