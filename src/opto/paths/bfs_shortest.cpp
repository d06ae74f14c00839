#include "opto/paths/bfs_shortest.hpp"

#include <unordered_map>

#include "opto/graph/graph_algo.hpp"
#include "opto/util/assert.hpp"

namespace opto {

Path bfs_shortest_path(const Graph& graph, NodeId source, NodeId destination) {
  const auto nodes = bfs_path(graph, source, destination);
  OPTO_ASSERT_MSG(!nodes.empty(), "destination unreachable from source");
  return Path::from_nodes(graph, nodes);
}

PathCollection bfs_collection(
    std::shared_ptr<const Graph> graph,
    std::span<const std::pair<NodeId, NodeId>> requests) {
  PathCollection collection(graph);
  collection.reserve(requests.size());
  std::unordered_map<NodeId, std::vector<NodeId>> trees;
  for (const auto& [source, destination] : requests) {
    auto it = trees.find(source);
    if (it == trees.end())
      it = trees.emplace(source, bfs_parents(*graph, source)).first;
    const auto nodes = tree_path(it->second, source, destination);
    OPTO_ASSERT_MSG(!nodes.empty(), "destination unreachable from source");
    collection.add_nodes(nodes);
  }
  return collection;
}

}  // namespace opto
