#include "opto/testlib/generator.hpp"

#include <algorithm>
#include <queue>
#include <set>
#include <utility>
#include <vector>

#include "opto/rng/rng.hpp"
#include "opto/sim/occupancy.hpp"
#include "opto/util/assert.hpp"

namespace opto::testlib {
namespace {

/// Undirected edge accumulator with the same rejection rules as
/// GraphBuilder::add_edge (no self-loops, no duplicates), so the emitted case
/// is well-formed by construction.
class EdgeSet {
 public:
  bool add(NodeId u, NodeId v) {
    if (u == v) return false;
    const NodeId lo = std::min(u, v);
    const NodeId hi = std::max(u, v);
    if (!seen_.insert((static_cast<std::uint64_t>(lo) << 32) | hi).second)
      return false;
    edges_.emplace_back(u, v);
    return true;
  }

  std::vector<std::pair<NodeId, NodeId>> take() { return std::move(edges_); }

 private:
  std::set<std::uint64_t> seen_;
  std::vector<std::pair<NodeId, NodeId>> edges_;
};

/// Parent-pointer BFS from `source` in discovery order (adjacency lists
/// are scanned in insertion order, so the result is deterministic).
/// Returns the node sequence source → destination, or empty when
/// unreachable.
std::vector<NodeId> bfs_path(const Graph& graph, NodeId source,
                             NodeId destination) {
  std::vector<NodeId> parent(graph.node_count(), kInvalidNode);
  std::queue<NodeId> frontier;
  parent[source] = source;
  frontier.push(source);
  while (!frontier.empty() && parent[destination] == kInvalidNode) {
    const NodeId u = frontier.front();
    frontier.pop();
    for (const EdgeId link : graph.out_links(u)) {
      const NodeId v = graph.target(link);
      if (parent[v] != kInvalidNode) continue;
      parent[v] = u;
      frontier.push(v);
    }
  }
  if (parent[destination] == kInvalidNode) return {};
  std::vector<NodeId> nodes{destination};
  while (nodes.back() != source) nodes.push_back(parent[nodes.back()]);
  std::reverse(nodes.begin(), nodes.end());
  return nodes;
}

/// Random simple walk of at most `max_links` links.
std::vector<NodeId> random_walk(const Graph& graph, NodeId start,
                                std::uint32_t max_links, Rng& rng) {
  std::vector<NodeId> nodes{start};
  std::vector<char> visited(graph.node_count(), 0);
  visited[start] = 1;
  std::vector<NodeId> candidates;
  for (std::uint32_t step = 0; step < max_links; ++step) {
    candidates.clear();
    for (const EdgeId link : graph.out_links(nodes.back())) {
      const NodeId v = graph.target(link);
      if (visited[v] == 0) candidates.push_back(v);
    }
    if (candidates.empty()) break;
    const NodeId next = candidates[rng.next_below(candidates.size())];
    visited[next] = 1;
    nodes.push_back(next);
  }
  return nodes;
}

double small_rate(Rng& rng) {
  if (!rng.next_bernoulli(0.5)) return 0.0;
  constexpr double kRates[] = {0.05, 0.15, 0.35};
  return kRates[rng.next_below(3)];
}

}  // namespace

FuzzCase generate_case(std::uint64_t seed, std::uint64_t index,
                       const GenOptions& options) {
  Rng rng = Rng::stream(seed, index);
  FuzzCase fuzz;
  fuzz.seed = seed;
  fuzz.index = index;

  // --- Topology ---------------------------------------------------------
  OPTO_ASSERT(options.max_nodes >= 2);
  NodeId n = 2 + static_cast<NodeId>(rng.next_below(options.max_nodes - 1));
  const std::uint64_t family = rng.next_below(8);
  EdgeSet edges;
  switch (family) {
    case 0:  // chain — the lower-bound structures' contention shape
      for (NodeId i = 0; i + 1 < n; ++i) edges.add(i, i + 1);
      break;
    case 1:  // ring
      for (NodeId i = 0; i + 1 < n; ++i) edges.add(i, i + 1);
      if (n >= 3) edges.add(n - 1, 0);
      break;
    case 2:  // star — every path crosses the hub
      for (NodeId i = 1; i < n; ++i) edges.add(0, i);
      break;
    case 3:  // clique (capped: quadratic edges)
      n = std::min<NodeId>(n, 7);
      for (NodeId u = 0; u < n; ++u)
        for (NodeId v = u + 1; v < n; ++v) edges.add(u, v);
      break;
    case 4:  // random tree plus chords
      for (NodeId i = 1; i < n; ++i)
        edges.add(static_cast<NodeId>(rng.next_below(i)), i);
      break;
    case 5: {  // two cliques joined by one bridge edge — a hotspot
      n = std::min<NodeId>(n, 12);
      const NodeId half = std::max<NodeId>(1, n / 2);
      for (NodeId u = 0; u < half; ++u)
        for (NodeId v = u + 1; v < half; ++v) edges.add(u, v);
      for (NodeId u = half; u < n; ++u)
        for (NodeId v = u + 1; v < n; ++v) edges.add(u, v);
      if (half < n) edges.add(0, half);
      break;
    }
    case 6: {  // disjoint chain segments — many edge-disjoint paths, so
               // cases decompose into k components (all-singleton when
               // every path lands in its own segment)
      const NodeId segments = 2 + static_cast<NodeId>(rng.next_below(4));
      const NodeId segment = std::max<NodeId>(2, n / segments);
      for (NodeId i = 0; i + 1 < n; ++i)
        if ((i + 1) % segment != 0) edges.add(i, i + 1);
      break;
    }
    case 7: {  // few shared hubs, many private tails: BFS paths funnel
               // through the hub edges while walks stay inside one tail —
               // a mix of one big component and private singletons
      const NodeId hubs =
          1 + static_cast<NodeId>(rng.next_below(std::min<NodeId>(2, n - 1)));
      for (NodeId h = 1; h < hubs; ++h) edges.add(h - 1, h);
      for (NodeId i = hubs; i < n; ++i) {
        if (i == hubs || rng.next_bernoulli(0.35))
          edges.add(static_cast<NodeId>(rng.next_below(hubs)), i);  // new tail
        else
          edges.add(i - 1, i);  // extend the previous tail
      }
      break;
    }
  }
  fuzz.node_count = n;
  // Random chords would reconnect family 6's segments (and blur family
  // 7's hub/tail split), defeating their multi-component purpose — the
  // decomposition families keep their structure chord-free.
  if (family != 3 && family != 5 && family < 6 && rng.next_bernoulli(0.5)) {
    const std::uint64_t chords = rng.next_below(options.max_extra_edges + 1);
    for (std::uint64_t c = 0; c < chords; ++c)
      edges.add(static_cast<NodeId>(rng.next_below(n)),
                static_cast<NodeId>(rng.next_below(n)));
  }
  fuzz.edges = edges.take();

  const Graph graph = make_graph(n, fuzz.edges, "gen");

  // --- Paths ------------------------------------------------------------
  const std::uint32_t path_count =
      1 + static_cast<std::uint32_t>(rng.next_below(options.max_paths));
  for (std::uint32_t p = 0; p < path_count; ++p) {
    const std::uint64_t kind = rng.next_below(8);
    std::vector<NodeId> nodes;
    if (kind == 7 && !fuzz.paths.empty()) {
      // Duplicate an earlier path: identical worms in full contention.
      nodes = fuzz.paths[rng.next_below(fuzz.paths.size())];
    } else if (kind >= 5) {
      nodes = random_walk(
          graph, static_cast<NodeId>(rng.next_below(n)),
          1 + static_cast<std::uint32_t>(
                  rng.next_below(options.max_walk_links)),
          rng);
    } else if (kind >= 1) {
      const NodeId s = static_cast<NodeId>(rng.next_below(n));
      const NodeId t = static_cast<NodeId>(rng.next_below(n));
      nodes = bfs_path(graph, s, t);
      if (nodes.empty()) nodes = {s};  // unreachable: zero-length path
    } else {
      // Zero-length path: source == destination, delivered on injection.
      nodes = {static_cast<NodeId>(rng.next_below(n))};
    }
    fuzz.paths.push_back(std::move(nodes));
  }

  // --- Config -----------------------------------------------------------
  fuzz.rule = rng.next_bernoulli(0.5) ? ContentionRule::Priority
                                      : ContentionRule::ServeFirst;
  fuzz.tie =
      rng.next_bernoulli(0.5) ? TiePolicy::FirstWins : TiePolicy::KillAll;
  fuzz.bandwidth =
      1 + static_cast<std::uint16_t>(rng.next_below(options.max_bandwidth));
  // Links x bandwidth must fit the simulator's channel budget; this only
  // binds on graphs far above the default node cap.
  fuzz.bandwidth = static_cast<std::uint16_t>(std::min<std::uint64_t>(
      fuzz.bandwidth,
      kMaxChannels / (2 * std::max<std::size_t>(1, fuzz.edges.size()))));
  if (rng.next_bernoulli(options.conversion_probability)) {
    if (rng.next_bernoulli(0.5)) {
      fuzz.conversion = ConversionMode::Full;
    } else {
      fuzz.conversion = ConversionMode::Sparse;
      fuzz.converters.resize(n);
      for (NodeId node = 0; node < n; ++node)
        fuzz.converters[node] = rng.next_bernoulli(0.5) ? 1 : 0;
    }
  }

  if (rng.next_bernoulli(options.fault_probability)) {
    fuzz.has_faults = true;
    fuzz.faults.link_outage_rate = small_rate(rng);
    fuzz.faults.coupler_outage_rate = small_rate(rng);
    fuzz.faults.stuck_wavelength_rate = small_rate(rng);
    fuzz.faults.corruption_rate = small_rate(rng);
    fuzz.faults.ack_drop_rate = 0.0;  // protocol-level; inert in one pass
    fuzz.faults.outage_period = 4 + static_cast<SimTime>(rng.next_below(61));
    fuzz.faults.outage_duration =
        1 + static_cast<SimTime>(rng.next_below(
                static_cast<std::uint64_t>(fuzz.faults.outage_period)));
    fuzz.fault_seed = rng.next_u64();
    fuzz.fault_epoch = rng.next_below(4);
  }

  // Pinned slots (held channels of the streaming engine): draw a few
  // random directed (link, wavelength) pairs. Duplicates are allowed —
  // the registry treats them as one claim.
  const std::size_t link_count = 2 * fuzz.edges.size();
  if (link_count > 0 && options.max_pinned > 0 &&
      rng.next_bernoulli(options.pinned_probability)) {
    const std::uint64_t slots = 1 + rng.next_below(options.max_pinned);
    for (std::uint64_t s = 0; s < slots; ++s) {
      PinnedSlot slot;
      slot.link = static_cast<EdgeId>(rng.next_below(link_count));
      slot.wavelength =
          static_cast<Wavelength>(rng.next_below(fuzz.bandwidth));
      fuzz.pinned.push_back(slot);
    }
  }

  // --- Launch schedule --------------------------------------------------
  std::uint32_t spec_count =
      path_count + static_cast<std::uint32_t>(
                       rng.next_below(options.max_extra_specs + 1));
  if (rng.next_below(16) == 0)  // rare: fewer worms than paths, possibly 0
    spec_count = static_cast<std::uint32_t>(rng.next_below(path_count + 1));
  const auto ranks = rng.permutation(spec_count);
  // Occasionally launch everything at t = 0: the densest contention step.
  const SimTime spread =
      rng.next_below(8) == 0
          ? 1
          : 1 + static_cast<SimTime>(rng.next_below(
                    static_cast<std::uint64_t>(options.max_start_spread)));
  for (std::uint32_t i = 0; i < spec_count; ++i) {
    LaunchSpec spec;
    spec.path = i < path_count
                    ? i
                    : static_cast<PathId>(rng.next_below(path_count));
    spec.start_time =
        static_cast<SimTime>(rng.next_below(static_cast<std::uint64_t>(spread)));
    spec.wavelength = static_cast<Wavelength>(rng.next_below(fuzz.bandwidth));
    spec.priority = ranks[i];
    spec.length =
        1 + static_cast<std::uint32_t>(rng.next_below(options.max_length));
    fuzz.specs.push_back(spec);
  }
  // Rare extreme: one start time past 2^31 forces the simulator off its
  // packed injection-sort fast path (and exercises idle fast-forward).
  if (!fuzz.specs.empty() && rng.next_below(128) == 0) {
    LaunchSpec& spec = fuzz.specs[rng.next_below(fuzz.specs.size())];
    spec.start_time = (SimTime{1} << 31) + static_cast<SimTime>(rng.next_below(3));
  }

  std::string error;
  OPTO_ASSERT_MSG(well_formed(fuzz, &error), error.c_str());
  return fuzz;
}

}  // namespace opto::testlib
