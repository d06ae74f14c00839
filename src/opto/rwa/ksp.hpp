// Yen-style k-shortest loopless routes over the directed-link graph.
//
// Routes are enumerated in the canonical total order
//   (length, lexicographic node sequence)
// exactly: every spur search returns the lexicographically smallest
// shortest path under the active node/link bans, and the next route is
// always the least of Yen's candidate list in that order, so the
// enumeration is a faithful walk of it (the brute-force oracle in
// tests/test_rwa_oracle.cpp checks this sequence-for-sequence). Determinism is load-bearing — every RWA
// strategy derives its candidate routes from this enumeration, so two
// runs of a strategy see identical candidates on any thread count.
//
// Searches read the unbanned hop counts to their destination from a
// HopTable: one per graph, filled a destination row at a time on first
// use and shared by every thread that searches the graph (DESIGN.md §11).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "opto/graph/graph.hpp"

namespace opto::rwa {

namespace detail {

/// Returns a HopTable's row mapping to the system.
struct UnmapRows {
  std::size_t bytes = 0;
  void operator()(std::uint16_t* rows) const;
};

}  // namespace detail

/// Every node's unbanned hop count to each destination of one graph, as
/// `uint16` rows of one node_count × node_count mapping of anonymous
/// pages: a page counts toward the resident set only once a row on it
/// is filled, and all of them go back to the system with the table,
/// whichever thread's heap arena would have held it. A row is
/// filled in full by a reverse BFS the first time a search asks for it
/// and published once through a per-row atomic state; a thread that
/// finds the row mid-fill by another thread computes its own copy rather
/// than wait. Rows never change once published, so any number of threads
/// may search through one table. The table refers to its graph, which
/// must outlive it and must not change while it is in use.
class HopTable {
 public:
  /// Graphs of more nodes keep no rows (the table would pass 2 MiB):
  /// their searches compute the destination row per call, in the
  /// thread's search workspace, only as far as they need it.
  static constexpr NodeId kMaxNodes = 1024;
  /// A row's entry for a node that cannot reach the destination.
  static constexpr std::uint16_t kNoRoute = 0xffff;

  explicit HopTable(const Graph& graph);
  HopTable(const HopTable&) = delete;
  HopTable& operator=(const HopTable&) = delete;

  const Graph& graph() const { return *graph_; }

  /// True when the graph is within kMaxNodes, so rows are kept.
  bool keeps_rows() const { return hops_ != nullptr; }

  /// Every node's unbanned hop count to `destination` (kNoRoute when it
  /// cannot reach it), filled on first use; empty when the table keeps
  /// no rows. Safe to call from any thread. A row another thread is
  /// still filling is returned as this thread's own copy, valid until
  /// this thread's next row() or route search.
  std::span<const std::uint16_t> row(NodeId destination) const;

 private:
  const Graph* graph_;
  /// Row d holds hops_[d * node_count, (d + 1) * node_count).
  std::unique_ptr<std::uint16_t[], detail::UnmapRows> hops_;
  std::unique_ptr<std::atomic<std::uint8_t>[]> state_;  ///< per row
};

/// The table of the graph `graph` points to, shared by every caller
/// passing a pointer with the same owner and address: a process-wide
/// registry keyed by owner identity (and by address, for aliasing
/// pointers) holds a `weak_ptr` to the graph and the table, so the table
/// lives as long as the graph does and a new graph never inherits a dead
/// graph's rows, even at a reused address. Expired entries are dropped
/// on the next lookup. The caller keeps `graph` alive while it uses the
/// table.
std::shared_ptr<const HopTable> shared_hop_table(
    const std::shared_ptr<const Graph>& graph);

/// Up to `k` shortest loopless routes from `source` to `destination` of
/// the table's graph as node sequences, in (length, lexicographic)
/// order. Fewer are returned when fewer exist; an unreachable
/// destination yields none. A source == destination request yields the
/// single zero-length route.
std::vector<std::vector<NodeId>> k_shortest_routes(const HopTable& table,
                                                   NodeId source,
                                                   NodeId destination,
                                                   std::uint32_t k);

/// The first route of that order, exactly
/// `k_shortest_routes(table, source, destination, k).front()` for any
/// k >= 1, or an empty route when `destination` is unreachable. Once
/// the destination's row is filled it allocates only the returned route.
std::vector<NodeId> shortest_route(const HopTable& table, NodeId source,
                                   NodeId destination);

}  // namespace opto::rwa
