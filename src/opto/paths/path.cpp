#include "opto/paths/path.hpp"

#include "opto/util/assert.hpp"

namespace opto {

namespace detail {
namespace {

/// The thread's node stamps: node u is on the current walk iff
/// marks[u] == stamp. Each walk takes a fresh stamp, so no walk clears
/// the array (except once per 2^32 walks, when the stamp wraps).
struct NodeStamps {
  std::vector<std::uint32_t> marks;
  std::uint32_t stamp = 0;
};

}  // namespace

SimpleWalk::SimpleWalk(const Graph& graph, NodeId source)
    : graph_(graph), at_(source) {
  OPTO_ASSERT_MSG(source < graph.node_count(), "path source outside graph");
  thread_local NodeStamps stamps;
  if (++stamps.stamp == 0) {
    std::fill(stamps.marks.begin(), stamps.marks.end(), 0u);
    stamps.stamp = 1;
  }
  if (stamps.marks.size() < graph.node_count())
    stamps.marks.resize(graph.node_count(), 0u);
  marks_ = stamps.marks.data();
  stamp_ = stamps.stamp;
  marks_[source] = stamp_;
}

EdgeId SimpleWalk::to(NodeId next) {
  const EdgeId link = graph_.find_link(at_, next);
  OPTO_ASSERT_MSG(link != kInvalidEdge, "consecutive nodes not adjacent");
  enter(next);
  return link;
}

void SimpleWalk::along(EdgeId link) {
  OPTO_ASSERT_MSG(graph_.source(link) == at_, "links are not consecutive");
  enter(graph_.target(link));
}

void SimpleWalk::enter(NodeId node) {
  OPTO_ASSERT_MSG(marks_[node] != stamp_,
                  "path revisits a node (paths must be simple)");
  marks_[node] = stamp_;
  at_ = node;
}

}  // namespace detail

std::vector<NodeId> PathView::nodes(const Graph& graph) const {
  std::vector<NodeId> out;
  out.reserve(links_.size() + 1);
  out.push_back(source_);
  for (EdgeId link : links_) out.push_back(graph.target(link));
  return out;
}

Path Path::from_nodes(const Graph& graph, std::span<const NodeId> nodes) {
  OPTO_ASSERT_MSG(!nodes.empty(), "path needs at least one node");
  Path path;
  path.source_ = nodes.front();
  path.destination_ = nodes.back();
  path.links_.reserve(nodes.size() - 1);
  detail::SimpleWalk walk(graph, nodes.front());
  for (NodeId next : nodes.subspan(1)) path.links_.push_back(walk.to(next));
  return path;
}

Path Path::from_links(const Graph& graph, std::vector<EdgeId> links) {
  OPTO_ASSERT(!links.empty());
  Path path;
  path.source_ = graph.source(links.front());
  detail::SimpleWalk walk(graph, path.source_);
  for (EdgeId link : links) walk.along(link);
  path.destination_ = walk.at();
  path.links_ = std::move(links);
  return path;
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
