#include "opto/paths/lowerbound_structures.hpp"

#include <unordered_map>
#include <utility>

#include "opto/util/assert.hpp"

namespace opto {

StructureBuilder::StructureBuilder() : graph_(0, "lower-bound-structures") {}

std::uint32_t StructureBuilder::staircase_step(std::uint32_t worm_length) {
  OPTO_ASSERT(worm_length >= 1);
  return (worm_length - 1) / 2 + 1;
}

std::uint32_t StructureBuilder::triangle_offset(std::uint32_t worm_length) {
  return worm_length / 2;
}

std::uint32_t StructureBuilder::path_count() const {
  return static_cast<std::uint32_t>(node_lists_.size());
}

namespace {

/// Adds `count` paths of `path_length` links to `graph` and `lists`. Path
/// i's node at position pos is the node of the canonical (path, position)
/// key canon(i, pos), created on first use; each traversed undirected
/// edge is added once (sharers traverse shared edges in the same
/// direction by construction).
template <class Canon>
void add_keyed_paths(GraphBuilder& graph,
                     std::vector<std::vector<NodeId>>& lists,
                     std::uint32_t count, std::uint32_t path_length,
                     Canon canon) {
  std::unordered_map<std::uint64_t, NodeId> nodes;
  const std::uint64_t stride = path_length + 2;
  for (std::uint32_t i = 0; i < count; ++i) {
    std::vector<NodeId> list;
    list.reserve(path_length + 1);
    for (std::uint32_t pos = 0; pos <= path_length; ++pos) {
      const auto [ci, cpos] = canon(i, pos);
      const auto [it, fresh] =
          nodes.try_emplace(std::uint64_t{ci} * stride + cpos);
      if (fresh) it->second = graph.add_node();
      list.push_back(it->second);
    }
    for (std::uint32_t pos = 0; pos < path_length; ++pos)
      if (!graph.has_edge(list[pos], list[pos + 1]))
        graph.add_edge(list[pos], list[pos + 1]);
    lists.push_back(std::move(list));
  }
}

}  // namespace

void StructureBuilder::add_staircase(std::uint32_t paths,
                                     std::uint32_t path_length,
                                     std::uint32_t worm_length) {
  OPTO_ASSERT(paths >= 1);
  const std::uint32_t d = staircase_step(worm_length);
  OPTO_ASSERT_MSG(path_length >= d + 1,
                  "staircase needs path_length >= step + 1");

  // Canonical key: (path i, position pos); positions 0 and 1 of path i>0
  // are positions d and d+1 of path i-1 (the shared edge), recursively.
  add_keyed_paths(graph_, node_lists_, paths, path_length,
                  [d](std::uint32_t i, std::uint32_t pos) {
                    while (i > 0 && pos <= 1) {
                      --i;
                      pos += d;
                    }
                    return std::pair{i, pos};
                  });
}

void StructureBuilder::add_bundle(std::uint32_t width,
                                  std::uint32_t path_length) {
  OPTO_ASSERT(width >= 1 && path_length >= 1);
  std::vector<NodeId> chain;
  chain.reserve(path_length + 1);
  for (std::uint32_t pos = 0; pos <= path_length; ++pos)
    chain.push_back(graph_.add_node());
  for (std::uint32_t pos = 0; pos < path_length; ++pos)
    graph_.add_edge(chain[pos], chain[pos + 1]);
  for (std::uint32_t copy = 0; copy < width; ++copy)
    node_lists_.push_back(chain);
}

void StructureBuilder::add_triangle(std::uint32_t path_length,
                                    std::uint32_t worm_length) {
  OPTO_ASSERT_MSG(worm_length >= 2, "blocking cycles need L >= 2");
  const std::uint32_t m = triangle_offset(worm_length);
  OPTO_ASSERT_MSG(path_length >= m + 2,
                  "triangle needs path_length >= offset + 2");

  // Canonical key: path j's positions m and m+1 are path (j+1 mod 3)'s
  // positions 0 and 1, recursively (the blocking cycle).
  add_keyed_paths(graph_, node_lists_, 3, path_length,
                  [m](std::uint32_t j, std::uint32_t pos) {
                    while (pos == m || pos == m + 1) {
                      j = (j + 1) % 3;
                      pos -= m;
                    }
                    return std::pair{j, pos};
                  });
}

PathCollection StructureBuilder::build() && {
  return collection_from_node_lists(
      std::make_shared<const Graph>(std::move(graph_).build()), node_lists_);
}

PathCollection make_staircase_collection(std::uint32_t structures,
                                         std::uint32_t paths_per_structure,
                                         std::uint32_t path_length,
                                         std::uint32_t worm_length) {
  StructureBuilder builder;
  for (std::uint32_t s = 0; s < structures; ++s)
    builder.add_staircase(paths_per_structure, path_length, worm_length);
  return std::move(builder).build();
}

PathCollection make_bundle_collection(std::uint32_t structures,
                                      std::uint32_t width,
                                      std::uint32_t path_length) {
  StructureBuilder builder;
  for (std::uint32_t s = 0; s < structures; ++s)
    builder.add_bundle(width, path_length);
  return std::move(builder).build();
}

PathCollection make_triangle_collection(std::uint32_t structures,
                                        std::uint32_t path_length,
                                        std::uint32_t worm_length) {
  StructureBuilder builder;
  for (std::uint32_t s = 0; s < structures; ++s)
    builder.add_triangle(path_length, worm_length);
  return std::move(builder).build();
}

}  // namespace opto
