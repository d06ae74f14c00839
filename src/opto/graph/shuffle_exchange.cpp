#include "opto/graph/shuffle_exchange.hpp"

#include <string>

#include "opto/util/assert.hpp"

namespace opto {

Graph make_shuffle_exchange(std::uint32_t dim) {
  OPTO_ASSERT(dim >= 2 && dim <= 20);
  const NodeId count = NodeId{1} << dim;
  GraphBuilder graph(count, "shuffle-exchange-" + std::to_string(dim));
  for (NodeId u = 0; u < count; ++u) {
    const NodeId exchanged = u ^ 1;
    if (u < exchanged) graph.add_edge(u, exchanged);
    const NodeId shuffled = rotate_left(u, dim);
    if (shuffled != u && !graph.has_edge(u, shuffled))
      graph.add_edge(u, shuffled);
  }
  return std::move(graph).build();
}

}  // namespace opto
