#include "opto/graph/expander.hpp"

#include <algorithm>
#include <set>
#include <string>

#include "opto/rng/rng.hpp"
#include "opto/util/assert.hpp"

namespace opto {

Graph make_circulant(std::uint32_t n, std::vector<std::uint32_t> offsets) {
  OPTO_ASSERT(n >= 3);
  std::sort(offsets.begin(), offsets.end());
  OPTO_ASSERT_MSG(
      std::adjacent_find(offsets.begin(), offsets.end()) == offsets.end(),
      "duplicate circulant offsets");
  std::string name = "circulant-" + std::to_string(n);
  for (const std::uint32_t s : offsets) {
    name += '-';
    name += std::to_string(s);
  }
  GraphBuilder graph(n, name);
  for (const std::uint32_t s : offsets) {
    OPTO_ASSERT(s >= 1 && s <= n / 2);
    for (NodeId u = 0; u < n; ++u) {
      const NodeId v = (u + s) % n;
      if (!graph.has_edge(u, v)) graph.add_edge(u, v);
    }
  }
  return std::move(graph).build();
}

Graph make_margulis_expander(std::uint32_t m) {
  OPTO_ASSERT(m >= 2 && m <= 1024);
  const NodeId count = m * m;
  GraphBuilder graph(count, "margulis-" + std::to_string(m));
  const auto node = [m](std::uint32_t x, std::uint32_t y) {
    return static_cast<NodeId>(x * m + y);
  };
  const auto mod = [m](std::int64_t v) {
    return static_cast<std::uint32_t>(((v % m) + m) % m);
  };
  for (std::uint32_t x = 0; x < m; ++x) {
    for (std::uint32_t y = 0; y < m; ++y) {
      const NodeId u = node(x, y);
      const std::uint32_t neighbors[][2] = {
          {mod(static_cast<std::int64_t>(x) + 2 * y), y},
          {mod(static_cast<std::int64_t>(x) - 2 * y), y},
          {mod(static_cast<std::int64_t>(x) + 2 * y + 1), y},
          {mod(static_cast<std::int64_t>(x) - 2 * y - 1), y},
          {x, mod(static_cast<std::int64_t>(y) + 2 * x)},
          {x, mod(static_cast<std::int64_t>(y) - 2 * x)},
          {x, mod(static_cast<std::int64_t>(y) + 2 * x + 1)},
          {x, mod(static_cast<std::int64_t>(y) - 2 * x - 1)},
      };
      for (const auto& nb : neighbors) {
        const NodeId v = node(nb[0], nb[1]);
        if (v != u && !graph.has_edge(u, v)) graph.add_edge(u, v);
      }
    }
  }
  return std::move(graph).build();
}

double sampled_edge_expansion(const Graph& graph, std::uint32_t samples,
                              std::uint64_t seed) {
  OPTO_ASSERT(graph.node_count() >= 2);
  Rng rng(seed);
  double worst = static_cast<double>(graph.max_degree());
  std::vector<char> in_set(graph.node_count(), 0);
  for (std::uint32_t sample = 0; sample < samples; ++sample) {
    // Random subset of size in [1, n/2]: take a prefix of a permutation
    // (connected-ish subsets would witness smaller cuts, but uniform
    // subsets suffice for a comparative metric).
    const auto size = static_cast<std::uint32_t>(
        1 + rng.next_below(std::max(1u, graph.node_count() / 2)));
    const auto perm = rng.permutation(graph.node_count());
    std::fill(in_set.begin(), in_set.end(), 0);
    for (std::uint32_t i = 0; i < size; ++i) in_set[perm[i]] = 1;
    std::uint64_t boundary = 0;
    for (std::uint32_t i = 0; i < size; ++i)
      for (const EdgeId e : graph.out_links(perm[i]))
        if (!in_set[graph.target(e)]) ++boundary;
    worst = std::min(
        worst, static_cast<double>(boundary) / static_cast<double>(size));
  }
  return worst;
}

}  // namespace opto
