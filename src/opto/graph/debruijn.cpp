#include "opto/graph/debruijn.hpp"

#include <string>

#include "opto/util/assert.hpp"

namespace opto {

Graph make_debruijn(std::uint32_t dim) {
  OPTO_ASSERT(dim >= 2 && dim <= 20);
  const NodeId count = NodeId{1} << dim;
  GraphBuilder graph(count, "debruijn-" + std::to_string(dim));
  const NodeId mask = count - 1;
  for (NodeId u = 0; u < count; ++u) {
    for (NodeId b = 0; b <= 1; ++b) {
      const NodeId v = ((u << 1) | b) & mask;
      if (v == u) continue;  // 00..0 and 11..1 shift onto themselves
      if (!graph.has_edge(u, v)) graph.add_edge(u, v);
    }
  }
  return std::move(graph).build();
}

}  // namespace opto
