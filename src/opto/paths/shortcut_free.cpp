#include "opto/paths/shortcut_free.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "opto/util/assert.hpp"

namespace opto {
namespace {

/// Common nodes of two paths with their positions on each.
struct CommonNode {
  NodeId node;
  std::uint32_t pos_p;
  std::uint32_t pos_q;
};

std::vector<CommonNode> common_nodes(const Graph& graph, PathView p,
                                     PathView q,
                                     std::vector<std::uint32_t>& pos_scratch,
                                     std::vector<PathId>& stamp_scratch,
                                     PathId stamp) {
  const auto p_nodes = p.nodes(graph);
  for (std::uint32_t i = 0; i < p_nodes.size(); ++i) {
    pos_scratch[p_nodes[i]] = i;
    stamp_scratch[p_nodes[i]] = stamp;
  }
  std::vector<CommonNode> common;
  const auto q_nodes = q.nodes(graph);
  for (std::uint32_t j = 0; j < q_nodes.size(); ++j) {
    const NodeId node = q_nodes[j];
    if (stamp_scratch[node] == stamp)
      common.push_back({node, pos_scratch[node], j});
  }
  std::sort(common.begin(), common.end(),
            [](const CommonNode& a, const CommonNode& b) {
              return a.pos_p < b.pos_p;
            });
  return common;
}

}  // namespace

std::optional<ShortcutViolation> find_shortcut(
    const PathCollection& collection) {
  const Graph& graph = collection.graph();
  std::vector<std::uint32_t> pos(graph.node_count(), 0);
  std::vector<PathId> stamp(graph.node_count(), kInvalidPath);
  PathId next_stamp = 0;

  for (PathId pi = 0; pi < collection.size(); ++pi) {
    const PathView p = collection.path(pi);
    for (PathId qi = 0; qi < collection.size(); ++qi) {
      if (pi == qi) continue;
      const PathView q = collection.path(qi);
      const auto common =
          common_nodes(graph, p, q, pos, stamp, next_stamp++);
      // Any two common nodes visited in the same order by both paths must
      // be at equal distance on both; otherwise the longer stretch is
      // shortcut by the shorter one.
      for (std::size_t a = 0; a < common.size(); ++a) {
        for (std::size_t b = a + 1; b < common.size(); ++b) {
          const auto& first = common[a];   // pos_p[a] < pos_p[b] by sort
          const auto& second = common[b];
          if (first.pos_q >= second.pos_q) continue;  // q visits reversed
          const std::uint32_t len_p = second.pos_p - first.pos_p;
          const std::uint32_t len_q = second.pos_q - first.pos_q;
          if (len_p == len_q) continue;
          ShortcutViolation violation;
          violation.from = first.node;
          violation.to = second.node;
          if (len_p > len_q) {
            violation.shortcut_path = pi;
            violation.via_path = qi;
            violation.long_length = len_p;
            violation.short_length = len_q;
          } else {
            violation.shortcut_path = qi;
            violation.via_path = pi;
            violation.long_length = len_q;
            violation.short_length = len_p;
          }
          return violation;
        }
      }
    }
  }
  return std::nullopt;
}

bool meet_separate_meet(const Graph& graph, PathView p, PathView q) {
  std::vector<std::uint32_t> pos(graph.node_count(), 0);
  std::vector<PathId> stamp(graph.node_count(), kInvalidPath);
  const auto common = common_nodes(graph, p, q, pos, stamp, 0);
  if (common.size() <= 1) return false;
  // Count maximal stretches that are contiguous on both paths (in either
  // direction on q). Two or more stretches = meet, separate, meet again.
  std::size_t stretches = 1;
  for (std::size_t i = 1; i < common.size(); ++i) {
    const bool contiguous_p = common[i].pos_p == common[i - 1].pos_p + 1;
    const std::int64_t dq = static_cast<std::int64_t>(common[i].pos_q) -
                            static_cast<std::int64_t>(common[i - 1].pos_q);
    const bool contiguous_q = dq == 1 || dq == -1;
    if (!(contiguous_p && contiguous_q)) ++stretches;
  }
  return stretches >= 2;
}

}  // namespace opto
