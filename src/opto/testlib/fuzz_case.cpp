#include "opto/testlib/fuzz_case.hpp"

#include <algorithm>
#include <set>

#include "opto/sim/occupancy.hpp"
#include "opto/util/assert.hpp"

namespace opto::testlib {
namespace {

// Sanity caps: a fuzz case is a minimized unit-test-sized input, and
// replayed cases come from untrusted files, so every count is bounded
// well below anything that could exhaust memory. The node range is the
// scenario DSL's explicit-topology range, so every well-formed case can
// be saved as a pass-mode scenario.
constexpr NodeId kMinNodes = 2;
constexpr NodeId kMaxNodes = 1u << 16;
constexpr std::size_t kMaxEdges = 1u << 20;
constexpr std::size_t kMaxPaths = 1u << 20;
constexpr std::size_t kMaxSpecs = 1u << 20;
constexpr std::uint16_t kMaxBandwidth = 1024;
constexpr std::uint32_t kMaxWormLength = 1u << 20;
constexpr SimTime kMaxStartTime = SimTime{1} << 33;
constexpr SimTime kMaxOutagePeriod = SimTime{1} << 20;
/// Case index and fault epoch: the scenario DSL's 2^52 − 1 cap.
constexpr std::uint64_t kMaxIndex = ~std::uint64_t{0} >> 12;

bool fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

std::uint64_t normalized_edge(NodeId u, NodeId v) {
  const NodeId lo = std::min(u, v);
  const NodeId hi = std::max(u, v);
  return (static_cast<std::uint64_t>(lo) << 32) | hi;
}

}  // namespace

bool well_formed(const FuzzCase& fuzz, std::string* error) {
  if (fuzz.index > kMaxIndex) return fail(error, "case index out of range");
  if (fuzz.node_count < kMinNodes || fuzz.node_count > kMaxNodes)
    return fail(error, "node count out of range");
  if (fuzz.edges.size() > kMaxEdges) return fail(error, "too many edges");
  if (fuzz.paths.size() > kMaxPaths) return fail(error, "too many paths");
  if (fuzz.specs.size() > kMaxSpecs) return fail(error, "too many specs");

  std::set<std::uint64_t> edge_set;
  for (const auto& [u, v] : fuzz.edges) {
    if (u >= fuzz.node_count || v >= fuzz.node_count)
      return fail(error, "edge endpoint outside the graph");
    if (u == v) return fail(error, "self-loop edge");
    if (!edge_set.insert(normalized_edge(u, v)).second)
      return fail(error, "duplicate undirected edge");
  }

  for (std::size_t p = 0; p < fuzz.paths.size(); ++p) {
    const auto& nodes = fuzz.paths[p];
    const std::string where = "path " + std::to_string(p);
    if (nodes.empty()) return fail(error, where + " has no nodes");
    std::set<NodeId> seen;
    for (const NodeId node : nodes) {
      if (node >= fuzz.node_count)
        return fail(error, where + " visits a node outside the graph");
      if (!seen.insert(node).second)
        return fail(error, where + " revisits a node (paths must be simple)");
    }
    for (std::size_t i = 0; i + 1 < nodes.size(); ++i)
      if (edge_set.count(normalized_edge(nodes[i], nodes[i + 1])) == 0)
        return fail(error, where + " uses a non-edge");
  }

  if (fuzz.bandwidth < 1 || fuzz.bandwidth > kMaxBandwidth)
    return fail(error, "bandwidth out of range");
  if (2 * fuzz.edges.size() * fuzz.bandwidth > kMaxChannels)
    return fail(error, "links x bandwidth exceeds the channel budget");
  if (fuzz.conversion == ConversionMode::Sparse) {
    if (fuzz.converters.size() != fuzz.node_count)
      return fail(error, "sparse conversion needs one flag per node");
  } else if (!fuzz.converters.empty()) {
    return fail(error, "converter flags given without sparse conversion");
  }

  if (fuzz.has_faults) {
    const FaultConfig& f = fuzz.faults;
    for (const double rate :
         {f.link_outage_rate, f.coupler_outage_rate, f.stuck_wavelength_rate,
          f.corruption_rate, f.ack_drop_rate})
      if (rate < 0.0 || rate > 1.0)
        return fail(error, "fault rate not in [0, 1]");
    if (f.outage_period < 1 || f.outage_period > kMaxOutagePeriod)
      return fail(error, "outage period out of range");
    if (f.outage_duration < 1 || f.outage_duration > f.outage_period)
      return fail(error, "outage duration must fit inside the period");
    if (fuzz.fault_epoch > kMaxIndex)
      return fail(error, "fault epoch out of range");
  }

  if (fuzz.pinned.size() > kMaxSpecs)
    return fail(error, "too many pinned slots");
  for (std::size_t i = 0; i < fuzz.pinned.size(); ++i) {
    const PinnedSlot& slot = fuzz.pinned[i];
    const std::string where = "pinned slot " + std::to_string(i);
    if (slot.link >= 2 * fuzz.edges.size())
      return fail(error, where + " references a missing link");
    if (slot.wavelength >= fuzz.bandwidth)
      return fail(error, where + " wavelength outside the bandwidth");
  }

  std::set<std::uint32_t> priorities;
  for (std::size_t i = 0; i < fuzz.specs.size(); ++i) {
    const LaunchSpec& spec = fuzz.specs[i];
    const std::string where = "spec " + std::to_string(i);
    if (spec.path >= fuzz.paths.size())
      return fail(error, where + " references a missing path");
    if (spec.length < 1 || spec.length > kMaxWormLength)
      return fail(error, where + " worm length out of range");
    if (spec.wavelength >= fuzz.bandwidth)
      return fail(error, where + " wavelength outside the bandwidth");
    if (spec.start_time < 0 || spec.start_time > kMaxStartTime)
      return fail(error, where + " start time out of range");
    if (fuzz.rule == ContentionRule::Priority &&
        !priorities.insert(spec.priority).second)
      return fail(error,
                  where + " duplicates a priority rank (the priority rule "
                          "requires pairwise-distinct ranks)");
  }
  return true;
}

std::unique_ptr<BuiltCase> build_case(const FuzzCase& fuzz) {
  std::string error;
  OPTO_ASSERT_MSG(well_formed(fuzz, &error), error.c_str());

  auto built = std::make_unique<BuiltCase>();
  built->graph = std::make_shared<const Graph>(
      make_graph(fuzz.node_count, fuzz.edges, "fuzz"));
  built->collection = collection_from_node_lists(built->graph, fuzz.paths);

  built->config.rule = fuzz.rule;
  built->config.tie = fuzz.tie;
  built->config.bandwidth = fuzz.bandwidth;
  built->config.conversion = fuzz.conversion;
  built->config.converters.assign(fuzz.converters.begin(),
                                  fuzz.converters.end());
  if (fuzz.has_faults) {
    built->plan = FaultPlan(fuzz.faults, fuzz.fault_seed);
    built->plan.set_epoch(fuzz.fault_epoch);
    built->config.faults = &built->plan;
  }
  return built;
}

}  // namespace opto::testlib
