// Path collection — the routing problem instance of the paper (§1.1).
//
// A collection is a multiset of paths in one graph, characterized by
//   n  — its size,
//   D  — its dilation (longest path), and
//   C̃  — its *path congestion*: max over paths p of the number of other
//        paths sharing a directed link with p (the quantity the paper's
//        bounds are stated in — NOT the per-edge congestion).
//
// Collisions in the optical model happen on directed links (each
// undirected edge is two independent fibers), so all sharing here is
// directed-link sharing.
//
// Storage is one CSR arena: every member's links concatenated in id
// order, plus one (source, destination, offset, length) record per
// member. Members are handed out as PathViews into it; builders append
// straight into it (add_walk).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <ranges>
#include <span>
#include <vector>

#include "opto/graph/graph.hpp"
#include "opto/paths/path.hpp"

namespace opto {

struct CollectionStats {
  std::uint32_t size = 0;             ///< n
  std::uint32_t dilation = 0;         ///< D
  std::uint32_t edge_congestion = 0;  ///< max paths per directed link
  std::uint32_t path_congestion = 0;  ///< C̃
  double avg_length = 0.0;
};

class PathCollection {
 public:
  PathCollection() = default;
  explicit PathCollection(std::shared_ptr<const Graph> graph)
      : graph_(std::move(graph)) {}

  const Graph& graph() const { return *graph_; }
  std::shared_ptr<const Graph> graph_ptr() const { return graph_; }

  /// Appends the member leaving `source` straight into the arena, hop by
  /// hop: `walk(to)` calls `to(next)` for each further node, in order.
  /// Path::from_nodes's checks apply.
  template <class Walk>
  void add_walk(NodeId source, Walk&& walk) {
    const auto offset = static_cast<std::uint32_t>(links_.size());
    detail::SimpleWalk hops(checked_graph(), source);
    walk([this, &hops](NodeId next) { links_.push_back(hops.to(next)); });
    commit(source, hops.at(), offset);
  }

  /// Appends the member through `nodes` (Path::from_nodes's checks).
  void add_nodes(std::span<const NodeId> nodes);

  /// Copies `path` (it may be a member) into the arena; its links must be
  /// links of the graph.
  void add(PathView path);

  void reserve(std::size_t n) { members_.reserve(n); }

  /// The acknowledgement collection: member p is member p reversed.
  PathCollection reversed() const;

  std::uint32_t size() const {
    return static_cast<std::uint32_t>(members_.size());
  }
  bool empty() const { return members_.empty(); }
  PathView path(PathId id) const {
    const Member& m = members_[id];
    return {m.source, m.destination, {links_.data() + m.offset, m.length}};
  }
  /// Every member, in id order, as PathViews.
  auto paths() const {
    return std::views::iota(PathId{0}, size()) |
           std::views::transform([this](PathId id) { return path(id); });
  }

  /// Every member's links, concatenated: member p's start at offset(p).
  /// Valid, like every PathView handed out, until the next append.
  std::span<const EdgeId> arena() const { return links_; }
  std::uint32_t offset(PathId id) const { return members_[id].offset; }

  std::uint32_t dilation() const;

  /// Number of paths using each directed link; indexed by EdgeId.
  std::vector<std::uint32_t> link_loads() const;

  /// Max over links of link load.
  std::uint32_t edge_congestion() const;

  /// Exact path congestion C̃ (counts *other* paths; a path sharing a link
  /// with k identical copies of itself counts those copies). Memoized: a
  /// schedule factory and the experiment harness asking for C̃ of one
  /// trial's collection pay for it once. C̃ is a pure function of the
  /// arena, so concurrent first reads compute and store the same value;
  /// the memo needs no lock. Copies and moves carry it; appending, and
  /// being moved from, forget it.
  std::uint32_t path_congestion() const;

  /// Per-path congestion values (same definition as above).
  std::vector<std::uint32_t> path_congestions() const;

  /// C̃ of the sub-multiset `ids` — sharing counted among those paths only,
  /// as a collection holding copies of them would report — without copying
  /// any path. Not memoized (the protocol asks once per round, for a
  /// different active set each time).
  std::uint32_t path_congestion_of(std::span<const PathId> ids) const;

  /// Estimated C̃ from a uniform sample of `samples` paths: the max of the
  /// sampled paths' exact congestions. A lower bound on the true C̃ that
  /// converges quickly in the workloads here (congestion concentrates).
  std::uint32_t path_congestion_sampled(std::uint32_t samples,
                                        std::uint64_t seed) const;

  CollectionStats stats() const;

 private:
  struct Member {
    NodeId source;
    NodeId destination;
    std::uint32_t offset;  ///< first link in links_
    std::uint32_t length;
  };

  static constexpr std::uint32_t kUnknown = ~0u;

  /// The C̃ memo, kUnknown until computed: copies carry it, moves carry
  /// it and leave kUnknown behind.
  struct Memo {
    mutable std::atomic<std::uint32_t> value{kUnknown};
    Memo() = default;
    Memo(const Memo& other) : value(other.value.load()) {}
    Memo(Memo&& other) noexcept : value(other.value.exchange(kUnknown)) {}
    Memo& operator=(const Memo& other) {
      value = other.value.load();
      return *this;
    }
    Memo& operator=(Memo&& other) noexcept {
      value = other.value.exchange(kUnknown);
      return *this;
    }
  };

  const Graph& checked_graph() const;
  /// Records the member whose links start at `offset` and run to the end
  /// of the arena.
  void commit(NodeId source, NodeId destination, std::uint32_t offset);

  std::shared_ptr<const Graph> graph_;
  std::vector<Member> members_;
  std::vector<EdgeId> links_;
  Memo congestion_;
};

/// Builds a single-graph collection from explicit node sequences
/// (test/demo helper).
PathCollection collection_from_node_lists(
    std::shared_ptr<const Graph> graph,
    std::span<const std::vector<NodeId>> node_lists);

}  // namespace opto
