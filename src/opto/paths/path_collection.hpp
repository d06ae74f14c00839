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
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
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

/// SoA view of the collection: every path's link sequence concatenated
/// into one contiguous array. Path p's links live at
/// [offsets[p], offsets[p+1]); the simulator's hot loop walks a cursor
/// through `links` instead of chasing Path objects per worm per step.
struct FlatPaths {
  std::vector<std::uint32_t> offsets;  ///< size() + 1 entries
  std::vector<EdgeId> links;           ///< all paths' links, concatenated
};

class PathCollection {
 public:
  PathCollection() = default;
  explicit PathCollection(std::shared_ptr<const Graph> graph)
      : graph_(std::move(graph)) {}

  // Copies and moves transfer the graph and paths but not the derived
  // caches (they rebuild on demand); required because the cache mutex is
  // neither copyable nor movable. A moved-from collection drops its caches
  // too, so it never reports the stats of paths it no longer holds.
  PathCollection(const PathCollection& other)
      : graph_(other.graph_), paths_(other.paths_) {}
  PathCollection(PathCollection&& other) noexcept
      : graph_(std::move(other.graph_)), paths_(std::move(other.paths_)) {
    other.invalidate_caches();
  }
  PathCollection& operator=(const PathCollection& other);
  PathCollection& operator=(PathCollection&& other) noexcept;

  const Graph& graph() const { return *graph_; }
  std::shared_ptr<const Graph> graph_ptr() const { return graph_; }

  void add(Path path);
  void reserve(std::size_t n) { paths_.reserve(n); }

  std::uint32_t size() const { return static_cast<std::uint32_t>(paths_.size()); }
  bool empty() const { return paths_.empty(); }
  const Path& path(PathId id) const { return paths_[id]; }
  std::span<const Path> paths() const { return {paths_.data(), paths_.size()}; }

  std::uint32_t dilation() const;

  /// Number of paths using each directed link; indexed by EdgeId.
  std::vector<std::uint32_t> link_loads() const;

  /// Max over links of link load.
  std::uint32_t edge_congestion() const;

  /// Exact path congestion C̃ (counts *other* paths; a path sharing a link
  /// with k identical copies of itself counts those copies).
  /// O(Σ_e load(e)²) worst case — fine at experiment scale; the bundle
  /// structures report their C̃ analytically instead. Cached: computed on
  /// the first call, with the same lifetime and invalidation rules as
  /// flat_paths(), so a schedule factory and the experiment harness asking
  /// for C̃ of one trial's collection pay for it once.
  std::uint32_t path_congestion() const;

  /// Per-path congestion values (same definition as above).
  std::vector<std::uint32_t> path_congestions() const;

  /// C̃ of the sub-multiset `ids` — sharing counted among those paths only,
  /// as a collection holding copies of them would report — without copying
  /// any path. Not cached (the protocol asks once per round, for a
  /// different active set each time).
  std::uint32_t path_congestion_of(std::span<const PathId> ids) const;

  /// Estimated C̃ from a uniform sample of `samples` paths: the max of the
  /// sampled paths' exact congestions. A lower bound on the true C̃ that
  /// converges quickly in the workloads here (congestion concentrates);
  /// use when the exact O(Σ load²) computation is too heavy.
  std::uint32_t path_congestion_sampled(std::uint32_t samples,
                                        std::uint64_t seed) const;

  CollectionStats stats() const;

  /// Cached flattened link array; built lazily (thread-safe) and
  /// invalidated by add(). The returned reference — and any spans into it
  /// — stays valid until the next mutation of the collection.
  const FlatPaths& flat_paths() const;

 private:
  void invalidate_caches();

  std::shared_ptr<const Graph> graph_;
  std::vector<Path> paths_;

  // Derived-view caches; mutable + mutex-guarded so concurrent readers
  // (parallel trials each constructing a Simulator on one shared
  // collection) build them exactly once.
  mutable std::mutex cache_mutex_;
  mutable std::unique_ptr<FlatPaths> flat_cache_;
  mutable std::optional<std::uint32_t> congestion_cache_;
};

/// Builds a single-graph collection from explicit node sequences
/// (test/demo helper).
PathCollection collection_from_node_lists(
    std::shared_ptr<const Graph> graph,
    std::span<const std::vector<NodeId>> node_lists);

}  // namespace opto
