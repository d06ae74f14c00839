#include "opto/paths/workloads.hpp"

#include "opto/paths/bfs_shortest.hpp"
#include "opto/paths/butterfly_paths.hpp"
#include "opto/paths/dimension_order.hpp"
#include "opto/util/assert.hpp"

namespace opto {

std::vector<NodeId> random_function(std::uint32_t n, Rng& rng) {
  std::vector<NodeId> f(n);
  for (auto& value : f) value = static_cast<NodeId>(rng.next_below(n));
  return f;
}

std::vector<NodeId> random_permutation(std::uint32_t n, Rng& rng) {
  return rng.permutation(n);
}

std::vector<std::pair<NodeId, NodeId>> function_requests(
    const std::vector<NodeId>& f) {
  std::vector<std::pair<NodeId, NodeId>> requests;
  requests.reserve(f.size());
  for (std::uint32_t i = 0; i < f.size(); ++i)
    requests.emplace_back(i, f[i]);
  return requests;
}

std::vector<std::pair<NodeId, NodeId>> random_q_function_requests(
    std::uint32_t n, std::uint32_t q, Rng& rng) {
  std::vector<std::pair<NodeId, NodeId>> requests;
  requests.reserve(static_cast<std::size_t>(n) * q);
  for (std::uint32_t i = 0; i < n; ++i)
    for (std::uint32_t copy = 0; copy < q; ++copy)
      requests.emplace_back(i, static_cast<NodeId>(rng.next_below(n)));
  return requests;
}

std::vector<std::pair<NodeId, NodeId>> hotspot_requests(
    std::uint32_t n, NodeId hotspot, double hotspot_fraction, Rng& rng) {
  OPTO_ASSERT(hotspot < n);
  OPTO_ASSERT(hotspot_fraction >= 0.0 && hotspot_fraction <= 1.0);
  std::vector<std::pair<NodeId, NodeId>> requests;
  requests.reserve(n);
  for (NodeId i = 0; i < n; ++i) {
    const NodeId destination = rng.next_bernoulli(hotspot_fraction)
                                   ? hotspot
                                   : static_cast<NodeId>(rng.next_below(n));
    requests.emplace_back(i, destination);
  }
  return requests;
}

PathCollection mesh_collection(
    std::shared_ptr<const MeshTopology> topo,
    const std::vector<std::pair<NodeId, NodeId>>& requests) {
  std::shared_ptr<const Graph> graph(topo, &topo->graph);
  PathCollection collection(std::move(graph));
  collection.reserve(requests.size());
  for (const auto& [source, destination] : requests)
    add_dimension_order_path(collection, *topo, source, destination);
  return collection;
}

PathCollection mesh_random_function(std::shared_ptr<const MeshTopology> topo,
                                    Rng& rng) {
  const auto f = random_function(topo->graph.node_count(), rng);
  return mesh_collection(std::move(topo), function_requests(f));
}

PathCollection butterfly_random_q_function(
    std::shared_ptr<const ButterflyTopology> topo, std::uint32_t q, Rng& rng) {
  OPTO_ASSERT(!topo->wrap);
  const std::uint32_t rows = topo->rows();
  std::vector<std::pair<std::uint32_t, std::uint32_t>> row_requests;
  row_requests.reserve(static_cast<std::size_t>(rows) * q);
  for (std::uint32_t row = 0; row < rows; ++row)
    for (std::uint32_t copy = 0; copy < q; ++copy)
      row_requests.emplace_back(
          row, static_cast<std::uint32_t>(rng.next_below(rows)));
  return butterfly_io_collection(std::move(topo), row_requests);
}

PathCollection bfs_random_function(std::shared_ptr<const Graph> graph,
                                   Rng& rng) {
  const auto f = random_function(graph->node_count(), rng);
  const auto requests = function_requests(f);
  return bfs_collection(std::move(graph), requests);
}

PathCollection bfs_random_permutation(std::shared_ptr<const Graph> graph,
                                      Rng& rng) {
  const auto f = random_permutation(graph->node_count(), rng);
  const auto requests = function_requests(f);
  return bfs_collection(std::move(graph), requests);
}

}  // namespace opto
