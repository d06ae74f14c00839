// A routing path: the fixed sequence of directed optical links a worm
// traverses from its source to its destination.
//
// Paths are simple (no repeated node): the paper's collections are; its
// open problems explicitly leave non-simple paths out of scope.
//
// `Path` owns its links (a single route, e.g. an RWA decision); a
// `PathView` borrows them (a member of a PathCollection, whose arena it
// points into, or a view of a Path).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "opto/graph/graph.hpp"
#include "opto/util/assert.hpp"

namespace opto {

using PathId = std::uint32_t;
inline constexpr PathId kInvalidPath = ~PathId{0};

/// A path's endpoints and links, borrowed: valid while the owner of the
/// links is alive and unchanged.
class PathView {
 public:
  PathView() = default;
  PathView(NodeId source, NodeId destination, std::span<const EdgeId> links)
      : source_(source), destination_(destination), links_(links) {}

  NodeId source() const { return source_; }
  NodeId destination() const { return destination_; }

  /// Number of links (the paper's path length; dilation contributes this).
  std::uint32_t length() const {
    return static_cast<std::uint32_t>(links_.size());
  }
  bool empty() const { return links_.empty(); }

  std::span<const EdgeId> links() const { return links_; }
  EdgeId link(std::uint32_t i) const { return links_[i]; }

  /// Reconstructs the node sequence (length() + 1 nodes).
  std::vector<NodeId> nodes(const Graph& graph) const;

  friend bool operator==(PathView a, PathView b) {
    return a.source_ == b.source_ && a.destination_ == b.destination_ &&
           std::ranges::equal(a.links_, b.links_);
  }

 private:
  NodeId source_ = kInvalidNode;
  NodeId destination_ = kInvalidNode;
  std::span<const EdgeId> links_;
};

class Path {
 public:
  Path() = default;

  /// Copies a borrowed path (e.g. a collection member) into an owning one.
  Path(PathView view)  // NOLINT(google-explicit-constructor)
      : source_(view.source()),
        destination_(view.destination()),
        links_(view.links().begin(), view.links().end()) {}

  /// Builds a path from a node sequence; every consecutive pair must be an
  /// edge of `graph` and nodes must be distinct. A single-node sequence
  /// gives a zero-length path (source == destination).
  static Path from_nodes(const Graph& graph, std::span<const NodeId> nodes);

  /// Builds directly from directed link ids (must be consecutive).
  static Path from_links(const Graph& graph, std::vector<EdgeId> links);

  operator PathView() const {  // NOLINT(google-explicit-constructor)
    return {source_, destination_, links()};
  }

  NodeId source() const { return source_; }
  NodeId destination() const { return destination_; }

  /// Number of links (the paper's path length; dilation contributes this).
  std::uint32_t length() const {
    return static_cast<std::uint32_t>(links_.size());
  }
  bool empty() const { return links_.empty(); }

  std::span<const EdgeId> links() const { return {links_.data(), links_.size()}; }
  EdgeId link(std::uint32_t i) const { return links_[i]; }

  /// Reconstructs the node sequence (length() + 1 nodes).
  std::vector<NodeId> nodes(const Graph& graph) const {
    return PathView(*this).nodes(graph);
  }

  /// The reverse path (acknowledgement route).
  Path reversed() const;

  bool operator==(const Path&) const = default;

 private:
  NodeId source_ = kInvalidNode;
  NodeId destination_ = kInvalidNode;
  std::vector<EdgeId> links_;
};

namespace detail {

/// Hop-by-hop checks for a simple route, shared by Path and
/// PathCollection: each hop must follow a link of the graph and reach a
/// node the route has not visited. Visits are stamped in a thread-local
/// node array, so a hop costs O(1), with no sort and, once the array has
/// grown to the graph, no allocation. One walk per thread at a time.
class SimpleWalk {
 public:
  SimpleWalk(const Graph& graph, NodeId source);

  /// The link from the current node to `next`, which becomes current.
  EdgeId to(NodeId next) {
    const EdgeId link = graph_.find_link(at_, next);
    OPTO_ASSERT_MSG(link != kInvalidEdge, "consecutive nodes not adjacent");
    enter(next);
    return link;
  }
  /// Follows `link`, which must leave the current node.
  void along(EdgeId link) {
    OPTO_ASSERT_MSG(graph_.source(link) == at_, "links are not consecutive");
    enter(graph_.target(link));
  }

  NodeId at() const { return at_; }

 private:
  void enter(NodeId node) {
    OPTO_ASSERT_MSG(marks_[node] != stamp_,
                    "path revisits a node (paths must be simple)");
    marks_[node] = stamp_;
    at_ = node;
  }

  const Graph& graph_;
  std::uint32_t* marks_;
  std::uint32_t stamp_;
  NodeId at_;
};

}  // namespace detail

}  // namespace opto
