#include "opto/graph/fattree.hpp"

#include <string>

#include "opto/util/assert.hpp"

namespace opto {

FatTreeTopology make_fat_tree(std::uint32_t radix) {
  OPTO_ASSERT(radix >= 2 && radix % 2 == 0);
  FatTreeTopology topo;
  topo.radix = radix;

  const std::uint32_t half = radix / 2;
  const std::uint32_t cores = half * half;
  const std::uint32_t switches = cores + radix * radix;  // + k pods * k
  const std::uint32_t host_count = radix * half * half;  // k^3 / 4
  GraphBuilder graph(switches + host_count, "fattree-" + std::to_string(radix));

  // Core <-> aggregation: aggregation switch i of every pod owns the
  // core group [i*half, (i+1)*half).
  for (std::uint32_t pod = 0; pod < radix; ++pod)
    for (std::uint32_t agg = 0; agg < half; ++agg)
      for (std::uint32_t c = 0; c < half; ++c)
        graph.add_edge(topo.aggregation(pod, agg), topo.core(agg * half + c));

  // Aggregation <-> edge: complete bipartite within each pod.
  for (std::uint32_t pod = 0; pod < radix; ++pod)
    for (std::uint32_t agg = 0; agg < half; ++agg)
      for (std::uint32_t e = 0; e < half; ++e)
        graph.add_edge(topo.aggregation(pod, agg), topo.edge(pod, e));

  // Edge <-> hosts: hosts take the tail id range, edge-switch order.
  NodeId next_host = switches;
  for (std::uint32_t pod = 0; pod < radix; ++pod)
    for (std::uint32_t e = 0; e < half; ++e)
      for (std::uint32_t h = 0; h < half; ++h) {
        graph.add_edge(topo.edge(pod, e), next_host);
        topo.hosts.push_back(next_host);
        ++next_host;
      }
  topo.graph = std::move(graph).build();
  return topo;
}

}  // namespace opto
