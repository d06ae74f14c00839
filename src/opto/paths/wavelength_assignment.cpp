#include "opto/paths/wavelength_assignment.hpp"

#include <algorithm>
#include <numeric>

#include "opto/paths/link_users.hpp"
#include "opto/util/assert.hpp"

namespace opto {
namespace {

/// Path id → its links: the member view the link inversion walks.
auto path_links(const PathCollection& collection) {
  return [&collection](PathId id) { return collection.path(id).links(); };
}

/// Directed links inverted to the paths using them, in path-id order.
detail::LinkUsers link_users(const PathCollection& collection) {
  return detail::invert_links(collection.graph().link_count(),
                              collection.size(), path_links(collection));
}

/// Adjacency lists of the path conflict graph, deduplicated.
std::vector<std::vector<PathId>> conflict_graph(
    const PathCollection& collection) {
  const detail::LinkUsers users = link_users(collection);
  std::vector<std::vector<PathId>> adjacency(collection.size());
  std::vector<std::uint32_t> marks(collection.size(), kInvalidPath);
  for (PathId id = 0; id < collection.size(); ++id)
    detail::for_each_sharer(
        users, path_links(collection), id, id, marks,
        [&adjacency, id](PathId other) { adjacency[id].push_back(other); });
  return adjacency;
}

}  // namespace

WavelengthAssignment assign_wavelengths(const PathCollection& collection,
                                        ColoringOrder order) {
  const auto adjacency = conflict_graph(collection);
  std::vector<PathId> coloring_order(collection.size());
  std::iota(coloring_order.begin(), coloring_order.end(), 0u);
  if (order == ColoringOrder::ByDegreeDesc) {
    std::stable_sort(coloring_order.begin(), coloring_order.end(),
                     [&adjacency](PathId a, PathId b) {
                       return adjacency[a].size() > adjacency[b].size();
                     });
  }

  WavelengthAssignment assignment;
  assignment.color.assign(collection.size(), ~0u);
  std::vector<char> used;  // scratch: colors taken by neighbors
  for (const PathId id : coloring_order) {
    used.assign(assignment.colors_used + 1, 0);
    for (const PathId neighbor : adjacency[id]) {
      const std::uint32_t c = assignment.color[neighbor];
      if (c != ~0u && c < used.size()) used[c] = 1;
    }
    std::uint32_t color = 0;
    while (color < used.size() && used[color]) ++color;
    assignment.color[id] = color;
    assignment.colors_used = std::max(assignment.colors_used, color + 1);
  }
  return assignment;
}

bool is_valid_assignment(const PathCollection& collection,
                         const WavelengthAssignment& assignment) {
  OPTO_ASSERT(assignment.color.size() == collection.size());
  const detail::LinkUsers users = link_users(collection);
  for (EdgeId link = 0; link < users.link_count(); ++link) {
    const std::span<const std::uint32_t> list = users.of(link);
    for (std::size_t a = 0; a < list.size(); ++a)
      for (std::size_t b = a + 1; b < list.size(); ++b)
        if (assignment.color[list[a]] == assignment.color[list[b]])
          return false;
  }
  return true;
}

}  // namespace opto
