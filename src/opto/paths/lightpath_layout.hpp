// Lightpath layouts on the chain — the virtual-path-layout substrate of
// the related work (Gerstel–Zaks [13,14]; Kranakis–Krizanc–Pelc [22]'s
// hop-congestion trade-off).
//
// A layout keeps a set of *lightpaths* (all-optical tunnels) permanently
// lit; a message hops between lightpaths, converting to electronics at
// every hop. The classic chain layout with base b keeps, per level
// ℓ = 0..levels−1, the tunnels [k·bˡ, (k+1)·bˡ] (and their reverses).
// Routing i→j greedily rides the largest aligned tunnel. The trade-off:
//
//   wavelengths per fiber needed  = levels           ≈ log_b n
//   worst-case hops               ≤ 2(b−1)·levels    ≈ 2(b−1)·log_b n
//
// Sweeping b traces the [22] curve: few wavelengths ↔ many hops.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "opto/graph/graph.hpp"
#include "opto/paths/path.hpp"
#include "opto/paths/path_collection.hpp"

namespace opto {

namespace layout_detail {

/// One greedy tunnel ride along a 1-D coordinate (shared by the chain,
/// mesh, and tree layouts).
struct TunnelStep {
  std::uint32_t start = 0;  ///< aligned tunnel start (smaller endpoint)
  std::uint32_t span = 1;
  bool forward = true;  ///< travelling start → start+span?
};

/// Greedy decomposition of a 1-D move from → to: at every position take
/// the largest aligned tunnel that does not overshoot.
std::vector<TunnelStep> greedy_steps(std::uint32_t from, std::uint32_t to,
                                     const std::vector<std::uint32_t>& spans);

/// Powers of `base` up to `extent` (the tunnel span ladder).
std::vector<std::uint32_t> span_ladder(std::uint32_t extent,
                                       std::uint32_t base);

}  // namespace layout_detail

struct ChainLayout {
  std::shared_ptr<const Graph> graph;  ///< the physical chain 0-1-…-(n−1)
  std::uint32_t nodes = 0;
  std::uint32_t base = 2;
  std::uint32_t levels = 1;
  /// Spans bˡ per level.
  std::vector<std::uint32_t> spans;
};

/// Builds the base-b layout for a fresh physical chain of `nodes` nodes.
/// nodes ≥ 2, base ≥ 2.
ChainLayout make_chain_layout(std::uint32_t nodes, std::uint32_t base);

/// The lightpath (as a physical path) of level ℓ starting at position
/// k·span; valid iff the full span fits in the chain.
Path layout_lightpath(const ChainLayout& layout, std::uint32_t level,
                      std::uint32_t start);

/// Greedy route src→dst as a chain of lightpaths (largest aligned tunnel
/// first). Every consecutive pair chains; an empty result means
/// src == dst.
std::vector<Path> layout_route(const ChainLayout& layout, NodeId src,
                               NodeId dst);

/// All lightpaths of the layout (both directions), as a collection —
/// e.g. to verify the wavelengths needed via rwa::run_static_rwa.
PathCollection layout_lightpaths(const ChainLayout& layout);

/// Max number of lightpaths over any directed physical link (== the
/// wavelengths needed to keep the whole layout lit).
std::uint32_t layout_wavelength_congestion(const ChainLayout& layout);

/// Exact worst-case hop count over all (src, dst) pairs.
std::uint32_t layout_max_hops(const ChainLayout& layout);

/// Mean hop count over all ordered pairs.
double layout_mean_hops(const ChainLayout& layout);

/// 2-D mesh layout: every row and every column carries an independent
/// chain layout of the same base. A message routes dimension-order over
/// lightpaths — row tunnels first, then column tunnels — so
///
///   wavelengths per fiber ≈ log_b side    (one tunnel set per level,
///                                          rows and columns use
///                                          disjoint fibers)
///   worst-case hops       ≈ 2 × chain worst case.
///
/// This is the mesh entry of the Gerstel–Zaks / Kranakis et al. layout
/// family.
struct MeshLayout {
  std::shared_ptr<const Graph> graph;  ///< fresh side×side mesh
  std::uint32_t side = 0;
  std::uint32_t base = 2;
  std::uint32_t levels = 1;
  std::vector<std::uint32_t> spans;

  NodeId node_at(std::uint32_t x, std::uint32_t y) const {
    return static_cast<NodeId>(x * side + y);
  }
};

/// side ≥ 2, base ≥ 2.
MeshLayout make_mesh_layout(std::uint32_t side, std::uint32_t base);

/// Greedy dimension-order lightpath route (x first, then y).
std::vector<Path> mesh_layout_route(const MeshLayout& layout, NodeId src,
                                    NodeId dst);

/// All lightpaths of the layout (row and column tunnels, both
/// directions).
PathCollection mesh_layout_lightpaths(const MeshLayout& layout);

/// Max lightpaths over any directed physical link.
std::uint32_t mesh_layout_wavelength_congestion(const MeshLayout& layout);

/// Exact worst-case hops over all ordered pairs (O(n²·hops); intended
/// for the moderate sides used in tests and benches).
std::uint32_t mesh_layout_max_hops(const MeshLayout& layout);

/// Ring layout — with chains, meshes, and trees this completes the
/// Gerstel–Zaks family [13,14]. Requires n = baseᵏ so the tunnel ladder
/// wraps consistently: level ℓ keeps the tunnels
/// [j·bˡ, (j+1)·bˡ mod n] in both directions. A message picks the
/// shorter arc and rides aligned tunnels greedily:
///
///   wavelengths per fiber = log_b n    (each fiber carries one
///                                       orientation, one tunnel/level)
///   worst-case hops       ≤ 2(b−1)·log_b n  (align-up then fit, on the
///                                            shorter arc)
struct RingLayout {
  std::shared_ptr<const Graph> graph;  ///< the physical ring 0..n−1
  std::uint32_t nodes = 0;
  std::uint32_t base = 2;
  std::uint32_t levels = 1;
  std::vector<std::uint32_t> spans;
};

/// nodes must be a power of `base` and ≥ base²; base ≥ 2.
RingLayout make_ring_layout(std::uint32_t nodes, std::uint32_t base);

/// The level-ℓ tunnel starting (in +1 direction) at aligned position
/// `start`.
Path ring_lightpath(const RingLayout& layout, std::uint32_t level,
                    std::uint32_t start);

/// Shorter-arc greedy route (ties go clockwise, the +1 direction).
std::vector<Path> ring_layout_route(const RingLayout& layout, NodeId src,
                                    NodeId dst);

PathCollection ring_layout_lightpaths(const RingLayout& layout);
std::uint32_t ring_layout_wavelength_congestion(const RingLayout& layout);
std::uint32_t ring_layout_max_hops(const RingLayout& layout);

}  // namespace opto
