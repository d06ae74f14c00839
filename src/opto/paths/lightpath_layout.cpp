#include "opto/paths/lightpath_layout.hpp"

#include <algorithm>

#include "opto/util/assert.hpp"

namespace opto {
namespace layout_detail {

std::vector<TunnelStep> greedy_steps(std::uint32_t from, std::uint32_t to,
                                     const std::vector<std::uint32_t>& spans) {
  std::vector<TunnelStep> steps;
  std::uint32_t p = from;
  while (p != to) {
    std::uint32_t best = 0;
    for (const std::uint32_t span : spans) {
      if (p % span != 0) continue;
      if (p < to && p + span <= to) best = std::max(best, span);
      if (p > to && p >= to + span) best = std::max(best, span);
    }
    OPTO_ASSERT(best >= 1);
    if (p < to) {
      steps.push_back({p, best, true});
      p += best;
    } else {
      steps.push_back({p - best, best, false});
      p -= best;
    }
  }
  return steps;
}

std::vector<std::uint32_t> span_ladder(std::uint32_t extent,
                                       std::uint32_t base) {
  std::vector<std::uint32_t> spans;
  std::uint64_t span = 1;
  while (span <= extent) {
    spans.push_back(static_cast<std::uint32_t>(span));
    span *= base;
  }
  return spans;
}

}  // namespace layout_detail

using layout_detail::greedy_steps;
using layout_detail::span_ladder;
using layout_detail::TunnelStep;

ChainLayout make_chain_layout(std::uint32_t nodes, std::uint32_t base) {
  OPTO_ASSERT(nodes >= 2);
  OPTO_ASSERT(base >= 2);
  ChainLayout layout;
  GraphBuilder graph(nodes, "chain-" + std::to_string(nodes));
  for (NodeId u = 0; u + 1 < nodes; ++u) graph.add_edge(u, u + 1);
  layout.graph = std::make_shared<const Graph>(std::move(graph).build());
  layout.nodes = nodes;
  layout.base = base;
  layout.spans = span_ladder(nodes - 1, base);
  layout.levels = static_cast<std::uint32_t>(layout.spans.size());
  return layout;
}

Path layout_lightpath(const ChainLayout& layout, std::uint32_t level,
                      std::uint32_t start) {
  OPTO_ASSERT(level < layout.levels);
  const std::uint32_t span = layout.spans[level];
  OPTO_ASSERT(start % span == 0);
  OPTO_ASSERT(start + span <= layout.nodes - 1);
  std::vector<NodeId> nodes;
  nodes.reserve(span + 1);
  for (std::uint32_t p = start; p <= start + span; ++p) nodes.push_back(p);
  return Path::from_nodes(*layout.graph, nodes);
}

std::vector<Path> layout_route(const ChainLayout& layout, NodeId src,
                               NodeId dst) {
  OPTO_ASSERT(src < layout.nodes && dst < layout.nodes);
  std::vector<Path> route;
  for (const TunnelStep& step : greedy_steps(src, dst, layout.spans)) {
    const auto level = static_cast<std::uint32_t>(
        std::find(layout.spans.begin(), layout.spans.end(), step.span) -
        layout.spans.begin());
    Path tunnel = layout_lightpath(layout, level, step.start);
    route.push_back(step.forward ? std::move(tunnel) : tunnel.reversed());
  }
  return route;
}

PathCollection layout_lightpaths(const ChainLayout& layout) {
  PathCollection collection(layout.graph);
  for (std::uint32_t level = 0; level < layout.levels; ++level) {
    const std::uint32_t span = layout.spans[level];
    for (std::uint32_t start = 0; start + span <= layout.nodes - 1;
         start += span) {
      Path forward = layout_lightpath(layout, level, start);
      collection.add(forward.reversed());
      collection.add(std::move(forward));
    }
  }
  return collection;
}

std::uint32_t layout_wavelength_congestion(const ChainLayout& layout) {
  return layout_lightpaths(layout).edge_congestion();
}

std::uint32_t layout_max_hops(const ChainLayout& layout) {
  std::uint32_t worst = 0;
  for (NodeId src = 0; src < layout.nodes; ++src)
    for (NodeId dst = 0; dst < layout.nodes; ++dst)
      worst = std::max(
          worst,
          static_cast<std::uint32_t>(layout_route(layout, src, dst).size()));
  return worst;
}

double layout_mean_hops(const ChainLayout& layout) {
  double total = 0.0;
  std::uint64_t pairs = 0;
  for (NodeId src = 0; src < layout.nodes; ++src)
    for (NodeId dst = 0; dst < layout.nodes; ++dst) {
      if (src == dst) continue;
      total += static_cast<double>(layout_route(layout, src, dst).size());
      ++pairs;
    }
  return pairs > 0 ? total / static_cast<double>(pairs) : 0.0;
}

MeshLayout make_mesh_layout(std::uint32_t side, std::uint32_t base) {
  OPTO_ASSERT(side >= 2);
  OPTO_ASSERT(base >= 2);
  MeshLayout layout;
  layout.side = side;
  layout.base = base;
  layout.spans = span_ladder(side - 1, base);
  layout.levels = static_cast<std::uint32_t>(layout.spans.size());

  GraphBuilder graph(
      side * side, "mesh-" + std::to_string(side) + "x" + std::to_string(side));
  for (std::uint32_t x = 0; x < side; ++x)
    for (std::uint32_t y = 0; y < side; ++y) {
      if (x + 1 < side)
        graph.add_edge(layout.node_at(x, y), layout.node_at(x + 1, y));
      if (y + 1 < side)
        graph.add_edge(layout.node_at(x, y), layout.node_at(x, y + 1));
    }
  layout.graph = std::make_shared<const Graph>(std::move(graph).build());
  return layout;
}

namespace {

/// Column tunnel (varying x, fixed y) or row tunnel (fixed x, varying y).
Path mesh_tunnel(const MeshLayout& layout, const TunnelStep& step,
                 std::uint32_t fixed, bool column) {
  std::vector<NodeId> nodes;
  nodes.reserve(step.span + 1);
  for (std::uint32_t p = step.start; p <= step.start + step.span; ++p)
    nodes.push_back(column ? layout.node_at(p, fixed)
                           : layout.node_at(fixed, p));
  Path forward = Path::from_nodes(*layout.graph, nodes);
  return step.forward ? forward : forward.reversed();
}

}  // namespace

std::vector<Path> mesh_layout_route(const MeshLayout& layout, NodeId src,
                                    NodeId dst) {
  OPTO_ASSERT(src < layout.side * layout.side &&
              dst < layout.side * layout.side);
  const std::uint32_t sx = src / layout.side, sy = src % layout.side;
  const std::uint32_t dx = dst / layout.side, dy = dst % layout.side;
  std::vector<Path> route;
  // Dimension order: ride column tunnels in x at the source column sy,
  // then row tunnels in y at the destination row dx.
  for (const TunnelStep& step : greedy_steps(sx, dx, layout.spans))
    route.push_back(mesh_tunnel(layout, step, sy, /*column=*/true));
  for (const TunnelStep& step : greedy_steps(sy, dy, layout.spans))
    route.push_back(mesh_tunnel(layout, step, dx, /*column=*/false));
  return route;
}

PathCollection mesh_layout_lightpaths(const MeshLayout& layout) {
  PathCollection collection(layout.graph);
  for (std::uint32_t level = 0; level < layout.levels; ++level) {
    const std::uint32_t span = layout.spans[level];
    for (std::uint32_t fixed = 0; fixed < layout.side; ++fixed) {
      for (std::uint32_t start = 0; start + span <= layout.side - 1;
           start += span) {
        for (const bool column : {true, false}) {
          Path forward =
              mesh_tunnel(layout, {start, span, true}, fixed, column);
          collection.add(forward.reversed());
          collection.add(std::move(forward));
        }
      }
    }
  }
  return collection;
}

std::uint32_t mesh_layout_wavelength_congestion(const MeshLayout& layout) {
  return mesh_layout_lightpaths(layout).edge_congestion();
}

RingLayout make_ring_layout(std::uint32_t nodes, std::uint32_t base) {
  OPTO_ASSERT(base >= 2);
  OPTO_ASSERT(nodes >= base * base);
  // n must be a power of the base so every tunnel level tiles the ring.
  std::uint64_t power = base;
  while (power < nodes) power *= base;
  OPTO_ASSERT_MSG(power == nodes, "ring layout needs nodes = base^k");

  RingLayout layout;
  GraphBuilder graph(nodes, "ring-" + std::to_string(nodes));
  for (NodeId u = 0; u + 1 < nodes; ++u) graph.add_edge(u, u + 1);
  graph.add_edge(nodes - 1, 0);
  layout.graph = std::make_shared<const Graph>(std::move(graph).build());
  layout.nodes = nodes;
  layout.base = base;
  // Top span n/b: a span-n tunnel would be a closed loop.
  layout.spans = span_ladder(nodes / base, base);
  layout.levels = static_cast<std::uint32_t>(layout.spans.size());
  return layout;
}

Path ring_lightpath(const RingLayout& layout, std::uint32_t level,
                    std::uint32_t start) {
  OPTO_ASSERT(level < layout.levels);
  const std::uint32_t span = layout.spans[level];
  OPTO_ASSERT(start % span == 0 && start < layout.nodes);
  std::vector<NodeId> nodes;
  nodes.reserve(span + 1);
  for (std::uint32_t i = 0; i <= span; ++i)
    nodes.push_back((start + i) % layout.nodes);
  return Path::from_nodes(*layout.graph, nodes);
}

std::vector<Path> ring_layout_route(const RingLayout& layout, NodeId src,
                                    NodeId dst) {
  OPTO_ASSERT(src < layout.nodes && dst < layout.nodes);
  std::vector<Path> route;
  if (src == dst) return route;
  const std::uint32_t n = layout.nodes;
  const std::uint32_t clockwise = (dst + n - src) % n;
  const bool go_clockwise = clockwise <= n - clockwise;
  std::uint32_t remaining = go_clockwise ? clockwise : n - clockwise;
  std::uint32_t p = src;
  while (remaining > 0) {
    // Largest aligned tunnel that fits the remaining arc. Alignment is
    // preserved mod n because every span divides n.
    std::uint32_t best = 0, best_level = 0;
    for (std::uint32_t level = 0; level < layout.levels; ++level) {
      const std::uint32_t span = layout.spans[level];
      if (span <= remaining && p % span == 0) {
        best = span;
        best_level = level;
      }
    }
    OPTO_ASSERT(best >= 1);
    if (go_clockwise) {
      route.push_back(ring_lightpath(layout, best_level, p));
      p = (p + best) % n;
    } else {
      const std::uint32_t start = (p + n - best) % n;
      route.push_back(ring_lightpath(layout, best_level, start).reversed());
      p = start;
    }
    remaining -= best;
  }
  return route;
}

PathCollection ring_layout_lightpaths(const RingLayout& layout) {
  PathCollection collection(layout.graph);
  for (std::uint32_t level = 0; level < layout.levels; ++level) {
    const std::uint32_t span = layout.spans[level];
    for (std::uint32_t start = 0; start < layout.nodes; start += span) {
      Path forward = ring_lightpath(layout, level, start);
      collection.add(forward.reversed());
      collection.add(std::move(forward));
    }
  }
  return collection;
}

std::uint32_t ring_layout_wavelength_congestion(const RingLayout& layout) {
  return ring_layout_lightpaths(layout).edge_congestion();
}

std::uint32_t ring_layout_max_hops(const RingLayout& layout) {
  std::uint32_t worst = 0;
  for (NodeId src = 0; src < layout.nodes; ++src)
    for (NodeId dst = 0; dst < layout.nodes; ++dst)
      worst = std::max(worst,
                       static_cast<std::uint32_t>(
                           ring_layout_route(layout, src, dst).size()));
  return worst;
}

std::uint32_t mesh_layout_max_hops(const MeshLayout& layout) {
  std::uint32_t worst = 0;
  const NodeId count = layout.side * layout.side;
  for (NodeId src = 0; src < count; ++src)
    for (NodeId dst = 0; dst < count; ++dst)
      worst = std::max(worst, static_cast<std::uint32_t>(
                                  mesh_layout_route(layout, src, dst).size()));
  return worst;
}

}  // namespace opto
