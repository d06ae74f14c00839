#include "opto/testlib/fuzz_case.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <set>
#include <sstream>

#include "opto/util/assert.hpp"

namespace opto::testlib {
namespace {

constexpr std::string_view kSchema = "opto.fuzz.case/1";

// Sanity caps: a fuzz case is a minimized unit-test-sized input, and the
// parser accepts untrusted files, so every count is bounded well below
// anything that could exhaust memory.
constexpr NodeId kMaxNodes = 1u << 18;
constexpr std::size_t kMaxEdges = 1u << 20;
constexpr std::size_t kMaxPaths = 1u << 20;
constexpr std::size_t kMaxSpecs = 1u << 20;
constexpr std::uint16_t kMaxBandwidth = 1024;
constexpr std::uint32_t kMaxWormLength = 1u << 20;
constexpr SimTime kMaxStartTime = SimTime{1} << 33;

bool fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

std::uint64_t normalized_edge(NodeId u, NodeId v) {
  const NodeId lo = std::min(u, v);
  const NodeId hi = std::max(u, v);
  return (static_cast<std::uint64_t>(lo) << 32) | hi;
}

// --- JSON helpers -------------------------------------------------------

bool read_u64(const JsonValue& object, std::string_view key,
              std::uint64_t max, std::uint64_t* out, std::string* error) {
  const JsonValue* field = object.find(key);
  if (field == nullptr || !field->is_number())
    return fail(error, "missing numeric field '" + std::string(key) + "'");
  const double v = field->number;
  if (v < 0.0 || v != static_cast<double>(static_cast<std::uint64_t>(v)) ||
      static_cast<std::uint64_t>(v) > max)
    return fail(error, "field '" + std::string(key) + "' out of range");
  *out = static_cast<std::uint64_t>(v);
  return true;
}

bool read_seed_string(const JsonValue& object, std::string_view key,
                      std::uint64_t* out, std::string* error) {
  const JsonValue* field = object.find(key);
  if (field == nullptr || !field->is_string())
    return fail(error, "missing seed string '" + std::string(key) + "'");
  const std::string& text = field->text;
  if (text.empty() ||
      text.find_first_not_of("0123456789") != std::string::npos)
    return fail(error, "field '" + std::string(key) + "' is not a decimal");
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || end != text.c_str() + text.size())
    return fail(error, "field '" + std::string(key) + "' overflows uint64");
  *out = value;
  return true;
}

bool read_rate(const JsonValue& object, std::string_view key, double* out,
               std::string* error) {
  const JsonValue* field = object.find(key);
  if (field == nullptr || !field->is_number())
    return fail(error, "missing fault rate '" + std::string(key) + "'");
  if (field->number < 0.0 || field->number > 1.0)
    return fail(error, "fault rate '" + std::string(key) + "' not in [0, 1]");
  *out = field->number;
  return true;
}

std::string seed_string(std::uint64_t value) { return std::to_string(value); }

}  // namespace

bool well_formed(const FuzzCase& fuzz, std::string* error) {
  if (fuzz.node_count < 1 || fuzz.node_count > kMaxNodes)
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
    if (f.outage_period < 1) return fail(error, "outage period must be >= 1");
    if (f.outage_duration < 0 || f.outage_duration > f.outage_period)
      return fail(error, "outage duration must fit inside the period");
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

JsonValue case_to_json(const FuzzCase& fuzz) {
  JsonValue root = JsonValue::make_object();
  root.add_member("schema", JsonValue::of(kSchema));
  root.add_member("seed", JsonValue::of(seed_string(fuzz.seed)));
  root.add_member("index", JsonValue::of(static_cast<double>(fuzz.index)));

  JsonValue graph = JsonValue::make_object();
  graph.add_member("nodes", JsonValue::of(static_cast<double>(fuzz.node_count)));
  JsonValue edges = JsonValue::make_array();
  for (const auto& [u, v] : fuzz.edges) {
    JsonValue pair = JsonValue::make_array();
    pair.items.push_back(JsonValue::of(static_cast<double>(u)));
    pair.items.push_back(JsonValue::of(static_cast<double>(v)));
    edges.items.push_back(std::move(pair));
  }
  graph.add_member("edges", std::move(edges));
  root.add_member("graph", std::move(graph));

  JsonValue paths = JsonValue::make_array();
  for (const auto& nodes : fuzz.paths) {
    JsonValue list = JsonValue::make_array();
    for (const NodeId node : nodes)
      list.items.push_back(JsonValue::of(static_cast<double>(node)));
    paths.items.push_back(std::move(list));
  }
  root.add_member("paths", std::move(paths));

  JsonValue config = JsonValue::make_object();
  config.add_member("rule", JsonValue::of(to_string(fuzz.rule)));
  config.add_member("tie", JsonValue::of(to_string(fuzz.tie)));
  config.add_member("bandwidth",
                    JsonValue::of(static_cast<double>(fuzz.bandwidth)));
  config.add_member("conversion", JsonValue::of(to_string(fuzz.conversion)));
  if (fuzz.conversion == ConversionMode::Sparse) {
    JsonValue flags = JsonValue::make_array();
    for (const char flag : fuzz.converters)
      flags.items.push_back(JsonValue::of(static_cast<double>(flag != 0)));
    config.add_member("converters", std::move(flags));
  }
  root.add_member("config", std::move(config));

  if (fuzz.has_faults) {
    JsonValue faults = JsonValue::make_object();
    faults.add_member("link_outage_rate",
                      JsonValue::of(fuzz.faults.link_outage_rate));
    faults.add_member("coupler_outage_rate",
                      JsonValue::of(fuzz.faults.coupler_outage_rate));
    faults.add_member("stuck_wavelength_rate",
                      JsonValue::of(fuzz.faults.stuck_wavelength_rate));
    faults.add_member("corruption_rate",
                      JsonValue::of(fuzz.faults.corruption_rate));
    faults.add_member("ack_drop_rate",
                      JsonValue::of(fuzz.faults.ack_drop_rate));
    faults.add_member(
        "outage_period",
        JsonValue::of(static_cast<double>(fuzz.faults.outage_period)));
    faults.add_member(
        "outage_duration",
        JsonValue::of(static_cast<double>(fuzz.faults.outage_duration)));
    faults.add_member("seed", JsonValue::of(seed_string(fuzz.fault_seed)));
    faults.add_member("epoch",
                      JsonValue::of(static_cast<double>(fuzz.fault_epoch)));
    root.add_member("faults", std::move(faults));
  }

  if (!fuzz.pinned.empty()) {
    JsonValue pinned = JsonValue::make_array();
    for (const PinnedSlot& slot : fuzz.pinned) {
      JsonValue entry = JsonValue::make_object();
      entry.add_member("link", JsonValue::of(static_cast<double>(slot.link)));
      entry.add_member("wavelength",
                       JsonValue::of(static_cast<double>(slot.wavelength)));
      pinned.items.push_back(std::move(entry));
    }
    root.add_member("pinned", std::move(pinned));
  }

  JsonValue specs = JsonValue::make_array();
  for (const LaunchSpec& spec : fuzz.specs) {
    JsonValue entry = JsonValue::make_object();
    entry.add_member("path", JsonValue::of(static_cast<double>(spec.path)));
    entry.add_member("start",
                     JsonValue::of(static_cast<double>(spec.start_time)));
    entry.add_member("wavelength",
                     JsonValue::of(static_cast<double>(spec.wavelength)));
    entry.add_member("priority",
                     JsonValue::of(static_cast<double>(spec.priority)));
    entry.add_member("length",
                     JsonValue::of(static_cast<double>(spec.length)));
    specs.items.push_back(std::move(entry));
  }
  root.add_member("specs", std::move(specs));
  return root;
}

std::optional<FuzzCase> case_from_json(const JsonValue& value,
                                       std::string* error) {
  const auto bad = [error](const std::string& message) {
    if (error != nullptr) *error = message;
    return std::nullopt;
  };

  if (!value.is_object()) return bad("case document must be an object");
  if (value.string_at("schema") != kSchema)
    return bad("unknown or missing schema (want '" + std::string(kSchema) +
               "')");

  FuzzCase fuzz;
  std::string field_error;
  if (!read_seed_string(value, "seed", &fuzz.seed, &field_error))
    return bad(field_error);
  std::uint64_t index = 0;
  if (!read_u64(value, "index", ~std::uint64_t{0} >> 12, &index, &field_error))
    return bad(field_error);
  fuzz.index = index;

  const JsonValue* graph = value.find("graph");
  if (graph == nullptr || !graph->is_object())
    return bad("missing 'graph' object");
  std::uint64_t nodes = 0;
  if (!read_u64(*graph, "nodes", kMaxNodes, &nodes, &field_error))
    return bad(field_error);
  fuzz.node_count = static_cast<NodeId>(nodes);
  const JsonValue* edges = graph->find("edges");
  if (edges == nullptr || !edges->is_array())
    return bad("missing 'graph.edges' array");
  for (const JsonValue& pair : edges->items) {
    if (!pair.is_array() || pair.items.size() != 2 ||
        !pair.items[0].is_number() || !pair.items[1].is_number())
      return bad("graph edge must be a [u, v] pair");
    const double u = pair.items[0].number;
    const double v = pair.items[1].number;
    if (u < 0 || v < 0 || u != std::floor(u) || v != std::floor(v))
      return bad("graph edge endpoints must be non-negative integers");
    fuzz.edges.emplace_back(static_cast<NodeId>(u), static_cast<NodeId>(v));
  }

  const JsonValue* paths = value.find("paths");
  if (paths == nullptr || !paths->is_array())
    return bad("missing 'paths' array");
  for (const JsonValue& list : paths->items) {
    if (!list.is_array()) return bad("each path must be a node array");
    std::vector<NodeId> nodes_list;
    for (const JsonValue& node : list.items) {
      if (!node.is_number() || node.number < 0 ||
          node.number != std::floor(node.number))
        return bad("path nodes must be non-negative integers");
      nodes_list.push_back(static_cast<NodeId>(node.number));
    }
    fuzz.paths.push_back(std::move(nodes_list));
  }

  const JsonValue* config = value.find("config");
  if (config == nullptr || !config->is_object())
    return bad("missing 'config' object");
  const std::string rule = config->string_at("rule");
  if (rule == "serve-first")
    fuzz.rule = ContentionRule::ServeFirst;
  else if (rule == "priority")
    fuzz.rule = ContentionRule::Priority;
  else
    return bad("config.rule must be 'serve-first' or 'priority'");
  const std::string tie = config->string_at("tie");
  if (tie == "kill-all")
    fuzz.tie = TiePolicy::KillAll;
  else if (tie == "first-wins")
    fuzz.tie = TiePolicy::FirstWins;
  else
    return bad("config.tie must be 'kill-all' or 'first-wins'");
  std::uint64_t bandwidth = 0;
  if (!read_u64(*config, "bandwidth", kMaxBandwidth, &bandwidth, &field_error))
    return bad(field_error);
  fuzz.bandwidth = static_cast<std::uint16_t>(bandwidth);
  const std::string conversion = config->string_at("conversion");
  if (conversion == "none")
    fuzz.conversion = ConversionMode::None;
  else if (conversion == "full")
    fuzz.conversion = ConversionMode::Full;
  else if (conversion == "sparse")
    fuzz.conversion = ConversionMode::Sparse;
  else
    return bad("config.conversion must be 'none', 'full', or 'sparse'");
  if (fuzz.conversion == ConversionMode::Sparse) {
    const JsonValue* flags = config->find("converters");
    if (flags == nullptr || !flags->is_array())
      return bad("sparse conversion needs a 'config.converters' array");
    for (const JsonValue& flag : flags->items) {
      if (!flag.is_number() || (flag.number != 0.0 && flag.number != 1.0))
        return bad("converter flags must be 0 or 1");
      fuzz.converters.push_back(flag.number != 0.0 ? 1 : 0);
    }
  }

  if (const JsonValue* faults = value.find("faults"); faults != nullptr) {
    if (!faults->is_object()) return bad("'faults' must be an object");
    fuzz.has_faults = true;
    if (!read_rate(*faults, "link_outage_rate",
                   &fuzz.faults.link_outage_rate, &field_error) ||
        !read_rate(*faults, "coupler_outage_rate",
                   &fuzz.faults.coupler_outage_rate, &field_error) ||
        !read_rate(*faults, "stuck_wavelength_rate",
                   &fuzz.faults.stuck_wavelength_rate, &field_error) ||
        !read_rate(*faults, "corruption_rate", &fuzz.faults.corruption_rate,
                   &field_error) ||
        !read_rate(*faults, "ack_drop_rate", &fuzz.faults.ack_drop_rate,
                   &field_error))
      return bad(field_error);
    std::uint64_t period = 0, duration = 0, epoch = 0;
    if (!read_u64(*faults, "outage_period", 1u << 20, &period, &field_error) ||
        !read_u64(*faults, "outage_duration", 1u << 20, &duration,
                  &field_error) ||
        !read_u64(*faults, "epoch", ~std::uint64_t{0} >> 12, &epoch,
                  &field_error) ||
        !read_seed_string(*faults, "seed", &fuzz.fault_seed, &field_error))
      return bad(field_error);
    fuzz.faults.outage_period = static_cast<SimTime>(period);
    fuzz.faults.outage_duration = static_cast<SimTime>(duration);
    fuzz.fault_epoch = epoch;
  }

  // Optional: absent in pre-engine corpus files, which keep parsing.
  if (const JsonValue* pinned = value.find("pinned"); pinned != nullptr) {
    if (!pinned->is_array()) return bad("'pinned' must be an array");
    for (const JsonValue& entry : pinned->items) {
      if (!entry.is_object()) return bad("each pinned slot must be an object");
      std::uint64_t link = 0, wavelength = 0;
      if (!read_u64(entry, "link", 2 * kMaxEdges, &link, &field_error) ||
          !read_u64(entry, "wavelength", kMaxBandwidth, &wavelength,
                    &field_error))
        return bad(field_error);
      PinnedSlot slot;
      slot.link = static_cast<EdgeId>(link);
      slot.wavelength = static_cast<Wavelength>(wavelength);
      fuzz.pinned.push_back(slot);
    }
  }

  const JsonValue* specs = value.find("specs");
  if (specs == nullptr || !specs->is_array())
    return bad("missing 'specs' array");
  for (const JsonValue& entry : specs->items) {
    if (!entry.is_object()) return bad("each spec must be an object");
    LaunchSpec spec;
    std::uint64_t path = 0, start = 0, wavelength = 0, priority = 0,
                  length = 0;
    if (!read_u64(entry, "path", kMaxPaths, &path, &field_error) ||
        !read_u64(entry, "start", static_cast<std::uint64_t>(kMaxStartTime),
                  &start, &field_error) ||
        !read_u64(entry, "wavelength", kMaxBandwidth, &wavelength,
                  &field_error) ||
        !read_u64(entry, "priority", ~std::uint32_t{0}, &priority,
                  &field_error) ||
        !read_u64(entry, "length", kMaxWormLength, &length, &field_error))
      return bad(field_error);
    spec.path = static_cast<PathId>(path);
    spec.start_time = static_cast<SimTime>(start);
    spec.wavelength = static_cast<Wavelength>(wavelength);
    spec.priority = static_cast<std::uint32_t>(priority);
    spec.length = static_cast<std::uint32_t>(length);
    fuzz.specs.push_back(spec);
  }

  std::string shape_error;
  if (!well_formed(fuzz, &shape_error)) return bad(shape_error);
  return fuzz;
}

std::string canonical_json(const FuzzCase& fuzz) {
  std::ostringstream os;
  write_json(os, case_to_json(fuzz), /*sorted_keys=*/true);
  os << '\n';
  return os.str();
}

std::optional<FuzzCase> parse_case(std::string_view text, std::string* error) {
  const auto document = parse_json(text, error);
  if (!document.has_value()) return std::nullopt;
  return case_from_json(*document, error);
}

}  // namespace opto::testlib
