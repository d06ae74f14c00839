#include "opto/paths/path.hpp"

#include <algorithm>

#include "opto/util/assert.hpp"

namespace opto {

namespace {

/// Asserts that the node sequence in `nodes` has no repeat. Sorts in
/// place: callers pass the thread's scratch buffer, never the path's own
/// node order.
void assert_simple(std::vector<NodeId>& nodes) {
  std::sort(nodes.begin(), nodes.end());
  OPTO_ASSERT_MSG(std::adjacent_find(nodes.begin(), nodes.end()) == nodes.end(),
                  "path revisits a node (paths must be simple)");
}

std::vector<NodeId>& node_scratch() {
  thread_local std::vector<NodeId> scratch;
  scratch.clear();
  return scratch;
}

}  // namespace

Path Path::from_nodes(const Graph& graph, std::span<const NodeId> nodes) {
  OPTO_ASSERT_MSG(!nodes.empty(), "path needs at least one node");
  Path path;
  path.source_ = nodes.front();
  path.destination_ = nodes.back();
  path.links_.reserve(nodes.size() - 1);
  for (std::size_t i = 0; i + 1 < nodes.size(); ++i) {
    const EdgeId link = graph.find_link(nodes[i], nodes[i + 1]);
    OPTO_ASSERT_MSG(link != kInvalidEdge, "consecutive nodes not adjacent");
    path.links_.push_back(link);
  }
  std::vector<NodeId>& seen = node_scratch();
  seen.assign(nodes.begin(), nodes.end());
  assert_simple(seen);
  return path;
}

Path Path::from_links(const Graph& graph, std::vector<EdgeId> links) {
  OPTO_ASSERT(!links.empty());
  Path path;
  path.source_ = graph.source(links.front());
  path.destination_ = graph.target(links.back());
  std::vector<NodeId>& seen = node_scratch();
  seen.push_back(path.source_);
  for (std::size_t i = 0; i < links.size(); ++i) {
    if (i > 0)
      OPTO_ASSERT_MSG(graph.source(links[i]) == graph.target(links[i - 1]),
                      "links are not consecutive");
    seen.push_back(graph.target(links[i]));
  }
  assert_simple(seen);
  path.links_ = std::move(links);
  return path;
}

std::vector<NodeId> Path::nodes(const Graph& graph) const {
  std::vector<NodeId> out;
  out.reserve(links_.size() + 1);
  out.push_back(source_);
  for (EdgeId link : links_) out.push_back(graph.target(link));
  return out;
}

Path Path::reversed() const {
  Path rev;
  rev.source_ = destination_;
  rev.destination_ = source_;
  rev.links_.reserve(links_.size());
  for (auto it = links_.rbegin(); it != links_.rend(); ++it)
    rev.links_.push_back(Graph::reverse(*it));
  return rev;
}

}  // namespace opto
