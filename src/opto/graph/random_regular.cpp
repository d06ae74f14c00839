#include "opto/graph/random_regular.hpp"

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "opto/util/assert.hpp"

namespace opto {

Graph make_random_regular(std::uint32_t n, std::uint32_t degree,
                          std::uint64_t seed) {
  OPTO_ASSERT(n >= 3);
  OPTO_ASSERT(degree >= 2 && degree < n);
  OPTO_ASSERT_MSG((static_cast<std::uint64_t>(n) * degree) % 2 == 0,
                  "n * degree must be even");
  Rng rng(seed);

  // Configuration model: pair up n·degree stubs uniformly; reject and
  // retry on self-loops or parallel edges.
  for (std::uint32_t attempt = 0; attempt < 1000; ++attempt) {
    std::vector<NodeId> stubs;
    stubs.reserve(static_cast<std::size_t>(n) * degree);
    for (NodeId u = 0; u < n; ++u)
      for (std::uint32_t s = 0; s < degree; ++s) stubs.push_back(u);
    rng.shuffle(stubs);

    std::set<std::pair<NodeId, NodeId>> edges;
    bool simple = true;
    for (std::size_t i = 0; i < stubs.size() && simple; i += 2) {
      NodeId a = stubs[i], b = stubs[i + 1];
      if (a == b) {
        simple = false;
        break;
      }
      if (a > b) std::swap(a, b);
      simple = edges.emplace(a, b).second;
    }
    if (!simple) continue;

    GraphBuilder graph(n, "random-regular-" + std::to_string(n) + "-" +
                       std::to_string(degree));
    for (const auto& [a, b] : edges) graph.add_edge(a, b);
    return std::move(graph).build();
  }
  OPTO_ASSERT_MSG(false, "configuration model failed to produce a simple "
                         "graph (degree too close to n?)");
  return Graph{};
}

}  // namespace opto
