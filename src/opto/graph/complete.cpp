#include "opto/graph/complete.hpp"

#include <string>

#include "opto/util/assert.hpp"

namespace opto {

Graph make_complete(std::uint32_t n) {
  OPTO_ASSERT(n >= 2 && n <= 2048);
  GraphBuilder graph(n, "complete-" + std::to_string(n));
  for (NodeId u = 0; u < n; ++u)
    for (NodeId v = u + 1; v < n; ++v) graph.add_edge(u, v);
  return std::move(graph).build();
}

}  // namespace opto
