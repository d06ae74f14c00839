#include "opto/graph/bcube.hpp"

#include <string>

#include "opto/util/assert.hpp"

namespace opto {

BCubeTopology make_bcube(std::uint32_t ports, std::uint32_t levels) {
  OPTO_ASSERT(ports >= 2 && levels >= 1);
  std::uint64_t server_count = 1;
  for (std::uint32_t l = 0; l < levels; ++l) {
    server_count *= ports;
    OPTO_ASSERT(server_count <= (std::uint64_t{1} << 31));
  }

  BCubeTopology topo;
  topo.ports = ports;
  topo.levels = levels;
  const std::uint32_t servers = static_cast<std::uint32_t>(server_count);
  const std::uint32_t per_level = servers / ports;
  GraphBuilder graph(servers + levels * per_level,
                     "bcube-" + std::to_string(ports) + "-" +
                         std::to_string(levels));
  topo.servers.reserve(servers);
  for (NodeId s = 0; s < servers; ++s) topo.servers.push_back(s);

  // Server (a_{k} ... a_0) joins, at level l, the switch indexed by its
  // digits with a_l removed: high digits keep their weight divided by n,
  // low digits keep theirs.
  for (NodeId s = 0; s < servers; ++s) {
    std::uint32_t low_weight = 1;
    for (std::uint32_t level = 0; level < levels; ++level) {
      const std::uint32_t low = s % low_weight;
      const std::uint32_t high = s / (low_weight * ports);
      const std::uint32_t index = high * low_weight + low;
      graph.add_edge(s, topo.switch_at(level, index));
      low_weight *= ports;
    }
  }
  topo.graph = std::move(graph).build();
  return topo;
}

}  // namespace opto
