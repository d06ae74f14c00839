#include "opto/graph/ring.hpp"

#include <string>

#include "opto/util/assert.hpp"

namespace opto {

Graph make_ring(std::uint32_t n) {
  OPTO_ASSERT(n >= 3);
  GraphBuilder graph(n, "ring-" + std::to_string(n));
  for (NodeId u = 0; u + 1 < n; ++u) graph.add_edge(u, u + 1);
  graph.add_edge(n - 1, 0);
  return std::move(graph).build();
}

}  // namespace opto
