// Yen-style k-shortest loopless routes over the directed-link graph.
//
// Routes are enumerated in the canonical total order
//   (length, lexicographic node sequence)
// exactly (the brute-force oracle in tests/test_rwa_oracle.cpp checks
// this sequence-for-sequence). Determinism is load-bearing — every RWA
// strategy derives its candidate routes from this enumeration, so two
// runs of a strategy see identical candidates on any thread count.
//
// A search reads the unbanned hop counts to its destination from a
// HopTable: one per graph, filled a destination row at a time on first
// use and shared by every thread that searches the graph (DESIGN.md §11).
// The shortest routes come first in the order, and they are exactly the
// routes of the row's shortest-route DAG (every step lowers the hop count
// by one), so a search first reads them off the DAG depth-first, next
// nodes in ascending order: that is their lexicographic order. Only when
// the DAG holds fewer than k routes does Yen's algorithm (Lawler's rule,
// a length cap) run, continuing from all of them.
//
// Routes come out as link ids, back to back in a RouteList, so callers
// read them as link spans with no node-to-link lookup; the node-sequence
// overloads are for tests and the fuzzer's reference comparison.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "opto/graph/graph.hpp"

namespace opto::rwa {

/// Routes as link sequences, back to back: route r is
/// links[begin(r), ends[r]). Searches append to a list, so one list can
/// hold the routes of many searches; clear() keeps the capacity.
struct RouteList {
  std::vector<EdgeId> links;
  std::vector<std::uint32_t> ends;

  std::uint32_t size() const {
    return static_cast<std::uint32_t>(ends.size());
  }
  std::uint32_t begin(std::uint32_t r) const {
    return r == 0 ? 0 : ends[r - 1];
  }
  std::span<const EdgeId> operator[](std::uint32_t r) const {
    return {links.data() + begin(r), links.data() + ends[r]};
  }
  void clear() {
    links.clear();
    ends.clear();
  }
};

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

/// Appends to `out` up to `k` shortest loopless routes from `source` to
/// `destination` of the table's graph, in (length, lexicographic) order,
/// and returns how many it appended. Fewer are appended when fewer exist;
/// an unreachable destination yields none. A source == destination
/// request yields the single zero-length route. Once the destination's
/// row is filled the call allocates nothing but `out`'s growth.
std::uint32_t k_shortest_routes(const HopTable& table, NodeId source,
                                NodeId destination, std::uint32_t k,
                                RouteList& out);

/// The same routes as node sequences.
std::vector<std::vector<NodeId>> k_shortest_routes(const HopTable& table,
                                                   NodeId source,
                                                   NodeId destination,
                                                   std::uint32_t k);

/// Appends the links of the first route of that order to `out`, exactly
/// route 0 of `k_shortest_routes(table, source, destination, k, …)` for
/// any k >= 1; returns false, appending nothing, when `destination` is
/// unreachable. Once the row is filled it allocates only `out`'s growth.
bool shortest_route(const HopTable& table, NodeId source, NodeId destination,
                    std::vector<EdgeId>& out);

/// The first route as a node sequence, or an empty route when
/// `destination` is unreachable. Allocates only the returned route once
/// the row is filled.
std::vector<NodeId> shortest_route(const HopTable& table, NodeId source,
                                   NodeId destination);

}  // namespace opto::rwa
