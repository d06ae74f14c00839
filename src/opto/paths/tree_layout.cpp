#include "opto/paths/tree_layout.hpp"

#include <algorithm>
#include <numeric>
#include <string>

#include "opto/paths/lightpath_layout.hpp"
#include "opto/util/assert.hpp"

namespace opto {

using layout_detail::greedy_steps;
using layout_detail::span_ladder;
using layout_detail::TunnelStep;

std::vector<std::uint32_t> TreeLayout::spans_for(std::uint32_t length) const {
  return length == 0 ? std::vector<std::uint32_t>{}
                     : span_ladder(length, base);
}

std::vector<NodeId> random_tree_parents(std::uint32_t n, Rng& rng) {
  OPTO_ASSERT(n >= 1);
  std::vector<NodeId> parent(n);
  parent[0] = 0;
  for (NodeId v = 1; v < n; ++v)
    parent[v] = static_cast<NodeId>(rng.next_below(v));
  return parent;
}

TreeLayout make_tree_layout(const std::vector<NodeId>& parent,
                            std::uint32_t base) {
  const auto n = static_cast<NodeId>(parent.size());
  OPTO_ASSERT(n >= 2);
  OPTO_ASSERT(base >= 2);

  TreeLayout layout;
  layout.parent = parent;
  layout.base = base;

  // Locate the root and validate the parent array by resolving depths.
  NodeId root = kInvalidNode;
  for (NodeId v = 0; v < n; ++v) {
    OPTO_ASSERT(parent[v] < n);
    if (parent[v] == v) {
      OPTO_ASSERT_MSG(root == kInvalidNode, "two roots in the parent array");
      root = v;
    }
  }
  OPTO_ASSERT_MSG(root != kInvalidNode, "no root (parent[r] == r) found");
  layout.root = root;

  layout.depth.assign(n, 0);
  {
    std::vector<char> resolved(n, 0);
    resolved[root] = 1;
    for (NodeId v = 0; v < n; ++v) {
      // Walk up collecting the unresolved chain, then unwind.
      std::vector<NodeId> chain;
      NodeId w = v;
      while (!resolved[w]) {
        chain.push_back(w);
        w = parent[w];
        OPTO_ASSERT_MSG(chain.size() <= n, "cycle in the parent array");
      }
      for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
        layout.depth[*it] = layout.depth[parent[*it]] + 1;
        resolved[*it] = 1;
      }
    }
  }

  // Build the physical tree.
  GraphBuilder graph(n, "tree-" + std::to_string(n));
  for (NodeId v = 0; v < n; ++v)
    if (v != root) graph.add_edge(parent[v], v);
  layout.graph = std::make_shared<const Graph>(std::move(graph).build());

  // Heavy-path decomposition: each node's heavy child is its
  // largest-subtree child.
  std::vector<std::uint32_t> subtree(n, 1);
  std::vector<NodeId> by_depth(n);
  std::iota(by_depth.begin(), by_depth.end(), 0u);
  std::sort(by_depth.begin(), by_depth.end(), [&](NodeId a, NodeId b) {
    return layout.depth[a] > layout.depth[b];
  });
  for (const NodeId v : by_depth)
    if (v != root) subtree[parent[v]] += subtree[v];

  std::vector<NodeId> heavy_child(n, kInvalidNode);
  for (const NodeId v : by_depth) {
    if (v == root) continue;
    const NodeId p = parent[v];
    if (heavy_child[p] == kInvalidNode ||
        subtree[v] > subtree[heavy_child[p]])
      heavy_child[p] = v;
  }

  layout.path_head.assign(n, kInvalidNode);
  layout.path_position.assign(n, 0);
  layout.path_nodes.assign(n, {});
  // Top-down (ascending depth) so a node's head is known before its
  // children's.
  std::sort(by_depth.begin(), by_depth.end(), [&](NodeId a, NodeId b) {
    return layout.depth[a] < layout.depth[b];
  });
  for (const NodeId v : by_depth) {
    const bool starts_path =
        v == root || heavy_child[parent[v]] != v;
    const NodeId head = starts_path ? v : layout.path_head[parent[v]];
    layout.path_head[v] = head;
    layout.path_position[v] =
        starts_path ? 0 : layout.path_position[parent[v]] + 1;
    layout.path_nodes[head].push_back(v);
  }
  return layout;
}

namespace {

/// Tunnel riding a heavy path between positions [start, start+span],
/// travelling toward the head (upward) or away from it.
Path heavy_tunnel(const TreeLayout& layout, NodeId head,
                  const TunnelStep& step) {
  const auto& nodes = layout.path_nodes[head];
  std::vector<NodeId> slice(nodes.begin() + step.start,
                            nodes.begin() + step.start + step.span + 1);
  Path forward = Path::from_nodes(*layout.graph, slice);
  return step.forward ? forward : forward.reversed();
}

/// The light-edge tunnel child → parent (child heads its heavy path).
Path light_tunnel(const TreeLayout& layout, NodeId child) {
  return Path::from_nodes(
      *layout.graph,
      std::vector<NodeId>{child, layout.parent[child]});
}

/// Tunnels climbing from v to its ancestor `target` (inclusive).
std::vector<Path> climb(const TreeLayout& layout, NodeId v, NodeId target) {
  std::vector<Path> legs;
  while (layout.path_head[v] != layout.path_head[target]) {
    const NodeId head = layout.path_head[v];
    if (v != head) {
      const auto spans = layout.spans_for(static_cast<std::uint32_t>(
          layout.path_nodes[head].size() - 1));
      for (const TunnelStep& step :
           greedy_steps(layout.path_position[v], 0, spans))
        legs.push_back(heavy_tunnel(layout, head, step));
    }
    legs.push_back(light_tunnel(layout, head));
    v = layout.parent[head];
  }
  if (v != target) {
    const NodeId head = layout.path_head[v];
    const auto spans = layout.spans_for(
        static_cast<std::uint32_t>(layout.path_nodes[head].size() - 1));
    for (const TunnelStep& step : greedy_steps(
             layout.path_position[v], layout.path_position[target], spans))
      legs.push_back(heavy_tunnel(layout, head, step));
  }
  return legs;
}

}  // namespace

NodeId tree_lca(const TreeLayout& layout, NodeId a, NodeId b) {
  // Heavy-path LCA: lift the deeper head until both are on one path.
  while (layout.path_head[a] != layout.path_head[b]) {
    const NodeId ha = layout.path_head[a], hb = layout.path_head[b];
    if (layout.depth[ha] >= layout.depth[hb])
      a = layout.parent[ha];
    else
      b = layout.parent[hb];
  }
  return layout.depth[a] <= layout.depth[b] ? a : b;
}

std::vector<Path> tree_layout_route(const TreeLayout& layout, NodeId src,
                                    NodeId dst) {
  OPTO_ASSERT(src < layout.parent.size() && dst < layout.parent.size());
  if (src == dst) return {};
  const NodeId meet = tree_lca(layout, src, dst);
  std::vector<Path> route = climb(layout, src, meet);
  // Downward half: climb dst → LCA, then reverse each tunnel and the
  // order.
  const auto down = climb(layout, dst, meet);
  for (auto it = down.rbegin(); it != down.rend(); ++it)
    route.push_back(it->reversed());
  return route;
}

PathCollection tree_layout_lightpaths(const TreeLayout& layout) {
  PathCollection collection(layout.graph);
  const auto n = static_cast<NodeId>(layout.parent.size());
  for (NodeId head = 0; head < n; ++head) {
    const auto& nodes = layout.path_nodes[head];
    if (nodes.empty() || nodes.front() != head) continue;
    const auto length = static_cast<std::uint32_t>(nodes.size() - 1);
    for (const std::uint32_t span : layout.spans_for(length)) {
      for (std::uint32_t start = 0; start + span <= length; start += span) {
        Path forward = heavy_tunnel(layout, head, {start, span, true});
        collection.add(forward.reversed());
        collection.add(std::move(forward));
      }
    }
  }
  for (NodeId v = 0; v < n; ++v) {
    if (v == layout.root || layout.path_head[v] != v) continue;
    Path up = light_tunnel(layout, v);
    collection.add(up.reversed());
    collection.add(std::move(up));
  }
  return collection;
}

std::uint32_t tree_layout_wavelength_congestion(const TreeLayout& layout) {
  return tree_layout_lightpaths(layout).edge_congestion();
}

std::uint32_t tree_layout_max_hops(const TreeLayout& layout) {
  std::uint32_t worst = 0;
  const auto n = static_cast<NodeId>(layout.parent.size());
  for (NodeId src = 0; src < n; ++src)
    for (NodeId dst = 0; dst < n; ++dst)
      worst = std::max(
          worst, static_cast<std::uint32_t>(
                     tree_layout_route(layout, src, dst).size()));
  return worst;
}

}  // namespace opto
