#include "opto/paths/leveled.hpp"

#include <algorithm>
#include <deque>

#include "opto/util/assert.hpp"

namespace opto {

std::optional<std::vector<std::uint32_t>> level_assignment(
    const PathCollection& collection) {
  const Graph& graph = collection.graph();
  const NodeId node_count = graph.node_count();

  // Collect the traversed directed links (deduplicated via a flag array).
  std::vector<char> link_used(graph.link_count(), 0);
  for (EdgeId link : collection.arena()) link_used[link] = 1;

  // Adjacency over used links only, in both directions, with the implied
  // level delta: target = source + 1.
  struct Constraint {
    NodeId to;
    std::int64_t delta;
  };
  std::vector<std::vector<Constraint>> constraints(node_count);
  for (EdgeId link = 0; link < graph.link_count(); ++link) {
    if (!link_used[link]) continue;
    const NodeId u = graph.source(link);
    const NodeId v = graph.target(link);
    constraints[u].push_back({v, +1});
    constraints[v].push_back({u, -1});
  }

  constexpr std::int64_t kUnset = INT64_MIN;
  std::vector<std::int64_t> level(node_count, kUnset);
  std::vector<NodeId> component;  // nodes of the component being labeled

  for (NodeId start = 0; start < node_count; ++start) {
    if (level[start] != kUnset || constraints[start].empty()) continue;
    component.clear();
    level[start] = 0;
    component.push_back(start);
    std::deque<NodeId> queue{start};
    std::int64_t min_level = 0;
    while (!queue.empty()) {
      const NodeId u = queue.front();
      queue.pop_front();
      for (const Constraint& c : constraints[u]) {
        const std::int64_t want = level[u] + c.delta;
        if (level[c.to] == kUnset) {
          level[c.to] = want;
          min_level = std::min(min_level, want);
          component.push_back(c.to);
          queue.push_back(c.to);
        } else if (level[c.to] != want) {
          return std::nullopt;  // inconsistent: not leveled
        }
      }
    }
    // Shift the component so its minimum level is 0.
    for (NodeId u : component) level[u] -= min_level;
  }

  std::vector<std::uint32_t> result(node_count, 0);
  for (NodeId u = 0; u < node_count; ++u)
    if (level[u] != kUnset) {
      OPTO_ASSERT(level[u] >= 0);
      result[u] = static_cast<std::uint32_t>(level[u]);
    }
  return result;
}

}  // namespace opto
