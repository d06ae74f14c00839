#include "opto/dsl/validate.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <vector>

#include "opto/dsl/canonical.hpp"
#include "opto/util/json_parse.hpp"

namespace opto::dsl {

const char* to_string(ScenarioMode mode) {
  switch (mode) {
    case ScenarioMode::Trials: return "trials";
    case ScenarioMode::Engine: return "engine";
    case ScenarioMode::Pass: return "pass";
  }
  return "trials";
}

namespace {

/// The lowest node an explicit topology's edges do not connect to node
/// 0, or 0 when the graph is connected.
std::uint32_t unreachable_node(const TopologySpec& topo) {
  std::vector<std::uint32_t> parent(topo.nodes);
  for (std::uint32_t v = 0; v < topo.nodes; ++v) parent[v] = v;
  const auto root = [&parent](std::uint32_t v) {
    while (parent[v] != v) v = parent[v] = parent[parent[v]];
    return v;
  };
  for (const auto& [u, v] : topo.edges) parent[root(u)] = root(v);
  for (std::uint32_t v = 1; v < topo.nodes; ++v)
    if (root(v) != root(0)) return v;
  return 0;
}

std::string value_desc(const Value& value) {
  switch (value.kind) {
    case Value::Kind::Number: return "number '" + value.text + "'";
    case Value::Kind::String: return "string \"" + value.text + "\"";
    case Value::Kind::Ident: return "identifier '" + value.text + "'";
    case Value::Kind::List: return "a list";
  }
  return "a value";
}

std::string join_options(const std::vector<std::string>& options) {
  std::string out;
  for (std::size_t i = 0; i < options.size(); ++i) {
    if (i > 0) out += i + 1 == options.size() ? " or " : ", ";
    out += options[i];
  }
  return out;
}

std::string slugify(const std::string& name) {
  std::string slug;
  for (const char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      slug.push_back(static_cast<char>(
          std::tolower(static_cast<unsigned char>(c))));
    } else if (!slug.empty() && slug.back() != '-') {
      slug.push_back('-');
    }
  }
  while (!slug.empty() && slug.back() == '-') slug.pop_back();
  return slug.empty() ? "scenario" : slug;
}

}  // namespace

/// Expected node count of a topology — converter lists are per-node.
std::uint64_t topology_nodes(const TopologySpec& topo) {
  if (topo.family == "butterfly")
    return static_cast<std::uint64_t>(topo.dim + 1) << topo.dim;
  if (topo.family == "mesh")
    return static_cast<std::uint64_t>(topo.side) * topo.side;
  if (topo.family == "hypercube") return std::uint64_t{1} << topo.dim;
  if (topo.family == "single_link") return 2;
  if (topo.family == "fattree") {
    const std::uint64_t half = topo.radix / 2;
    // cores + (agg + edge per pod) + hosts
    return half * half + static_cast<std::uint64_t>(topo.radix) * topo.radix +
           half * half * topo.radix;
  }
  if (topo.family == "bcube") {
    std::uint64_t servers = 1;
    for (std::uint32_t l = 0; l < topo.levels; ++l) servers *= topo.ports;
    return servers + static_cast<std::uint64_t>(topo.levels) *
                         (servers / topo.ports);
  }
  return topo.nodes;  // ring, complete, explicit
}

std::uint64_t topology_links(const TopologySpec& topo) {
  // Two directed links per undirected edge of the family's builder.
  if (topo.family == "butterfly")
    return std::uint64_t{4} * topo.dim << topo.dim;
  if (topo.family == "mesh")
    return std::uint64_t{4} * topo.side * (topo.side - 1);
  if (topo.family == "ring") return std::uint64_t{2} * topo.nodes;
  if (topo.family == "hypercube")
    return static_cast<std::uint64_t>(topo.dim) << topo.dim;
  if (topo.family == "complete")
    return static_cast<std::uint64_t>(topo.nodes) * (topo.nodes - 1);
  if (topo.family == "single_link") return 2;
  if (topo.family == "fattree") {
    // core–agg, agg–edge and edge–host layers: k³/4 edges each.
    const std::uint64_t k = topo.radix;
    return 3 * k * k * k / 2;
  }
  if (topo.family == "bcube") {
    std::uint64_t servers = 1;
    for (std::uint32_t l = 0; l < topo.levels; ++l) servers *= topo.ports;
    return 2 * servers * topo.levels;  // one switch port per server level
  }
  return 2 * topo.edges.size();  // explicit
}

std::uint64_t topology_diameter(const TopologySpec& topo) {
  if (topo.family == "butterfly") return std::uint64_t{2} * topo.dim;
  if (topo.family == "mesh") return std::uint64_t{2} * (topo.side - 1);
  if (topo.family == "ring") return topo.nodes / 2;
  if (topo.family == "hypercube") return topo.dim;
  if (topo.family == "complete" || topo.family == "single_link") return 1;
  if (topo.family == "fattree") return 6;  // host-edge-agg-core-agg-edge-host
  if (topo.family == "bcube") return std::uint64_t{2} * topo.levels;
  return topo.nodes - 1;  // explicit: any simple path
}

std::string channel_budget_error(const ScenarioSpec& spec) {
  const std::uint64_t links = topology_links(spec.topology);
  const std::uint64_t channels = links * spec.protocol.bandwidth;
  if (channels <= kMaxChannels) return {};
  return "too many channels: topology " + spec.topology.family + " has " +
         std::to_string(links) + " directed links x bandwidth " +
         std::to_string(spec.protocol.bandwidth) + " = " +
         std::to_string(channels) + " channels, the cap is " +
         std::to_string(kMaxChannels);
}

namespace {

class Validator {
 public:
  Validator(const ScenarioAst& ast, ScenarioSpec& spec, DslError& error)
      : ast_(ast), spec_(spec), error_(error) {}

  bool run() {
    spec_ = ScenarioSpec{};
    spec_.name = ast_.name;
    if (!top_level()) return false;
    for (const Section& section : ast_.sections) {
      if (!dispatch(section)) return false;
    }
    return finish();
  }

 private:
  bool fail(SourceLoc loc, std::string message) {
    error_ = DslError{ast_.file, loc, std::move(message)};
    return false;
  }

  // ---- typed extraction -------------------------------------------------

  bool get_u64(const Setting& s, std::uint64_t lo, std::uint64_t hi,
               std::uint64_t& out) {
    return u64_from(s.value, "setting '" + s.key + "'", lo, hi, out);
  }

  bool u64_from(const Value& v, const std::string& what, std::uint64_t lo,
                std::uint64_t hi, std::uint64_t& out) {
    if (v.kind != Value::Kind::Number)
      return fail(v.loc,
                  "expected an integer for " + what + ", got " + value_desc(v));
    if (v.text.find_first_of(".eE") != std::string::npos)
      return fail(v.loc,
                  "expected an integer for " + what + ", got " + value_desc(v));
    if (v.text[0] == '-')
      return fail(v.loc, "expected a non-negative integer for " + what +
                             ", got " + value_desc(v));
    errno = 0;
    char* end = nullptr;
    const unsigned long long parsed = std::strtoull(v.text.c_str(), &end, 10);
    const bool overflow = errno == ERANGE || *end != '\0';
    out = static_cast<std::uint64_t>(parsed);
    if (overflow || out < lo || out > hi)
      return fail(v.loc, what + " out of range: got " + v.text +
                             ", expected " + std::to_string(lo) + ".." +
                             std::to_string(hi));
    return true;
  }

  bool get_u32(const Setting& s, std::uint64_t lo, std::uint64_t hi,
               std::uint32_t& out) {
    std::uint64_t wide = 0;
    if (!get_u64(s, lo, hi, wide)) return false;
    out = static_cast<std::uint32_t>(wide);
    return true;
  }

  bool get_double(const Setting& s, double lo, double hi,
                  const std::string& range, double& out,
                  bool lo_exclusive = false) {
    const Value& v = s.value;
    if (v.kind != Value::Kind::Number)
      return fail(v.loc, "expected a number for setting '" + s.key +
                             "', got " + value_desc(v));
    errno = 0;
    out = std::strtod(v.text.c_str(), nullptr);
    const bool below = lo_exclusive ? out <= lo : out < lo;
    if (errno == ERANGE || below || out > hi)
      return fail(v.loc, "setting '" + s.key + "' out of range: got " +
                             v.text + ", expected " + range);
    return true;
  }

  bool get_string(const Setting& s, std::string& out) {
    if (s.value.kind != Value::Kind::String)
      return fail(s.value.loc, "expected a string for setting '" + s.key +
                                   "', got " + value_desc(s.value));
    out = s.value.text;
    return true;
  }

  bool get_enum(const Setting& s, const std::vector<std::string>& options,
                std::string& out) {
    if (s.value.kind != Value::Kind::Ident)
      return fail(s.value.loc, "expected an identifier for setting '" +
                                   s.key + "', got " + value_desc(s.value));
    for (const std::string& option : options) {
      if (s.value.text == option) {
        out = option;
        return true;
      }
    }
    return fail(s.value.loc, "unknown value '" + s.value.text +
                                 "' for setting '" + s.key + "' (expected " +
                                 join_options(options) + ")");
  }

  bool get_bool(const Setting& s, bool& out) {
    std::string word;
    if (!get_enum(s, {"true", "false"}, word)) return false;
    out = word == "true";
    return true;
  }

  bool get_list(const Setting& s, const Value*& out) {
    if (s.value.kind != Value::Kind::List)
      return fail(s.value.loc, "expected a list for setting '" + s.key +
                                   "', got " + value_desc(s.value));
    out = &s.value;
    return true;
  }

  /// `[[a, b], …]` — fixed-arity integer tuples (edges, pinned, launches);
  /// field i must lie in 0..hi[i], and the arity is hi.size().
  bool get_tuple_list(
      const Setting& s, const std::vector<std::uint64_t>& hi,
      const std::string& what, std::vector<std::vector<std::uint64_t>>& out) {
    const std::size_t arity = hi.size();
    const Value* list = nullptr;
    if (!get_list(s, list)) return false;
    out.clear();
    for (const Value& item : list->items) {
      if (item.kind != Value::Kind::List)
        return fail(item.loc, "expected a " + what + " list [" +
                                  std::to_string(arity) + " integers], got " +
                                  value_desc(item));
      if (item.items.size() != arity)
        return fail(item.loc, "expected " + std::to_string(arity) +
                                  " integers in a " + what + " entry, got " +
                                  std::to_string(item.items.size()));
      std::vector<std::uint64_t> tuple;
      for (std::size_t i = 0; i < arity; ++i) {
        std::uint64_t v = 0;
        if (!u64_from(item.items[i], "a " + what + " entry", 0, hi[i], v))
          return false;
        tuple.push_back(v);
      }
      out.push_back(std::move(tuple));
    }
    return true;
  }

  // ---- duplicate / unknown-setting walk ---------------------------------

  template <typename Handler>
  bool walk(const std::vector<Setting>& settings, const std::string& scope,
            Handler&& handler) {
    std::vector<const std::string*> seen;
    for (const Setting& s : settings) {
      for (const std::string* prior : seen) {
        if (*prior == s.key)
          return fail(s.loc, "duplicate setting '" + s.key + "' in " + scope);
      }
      seen.push_back(&s.key);
      int status = handler(s);  // 1 handled, 0 unknown, -1 error
      if (status < 0) return false;
      if (status == 0)
        return fail(s.loc, "unknown setting '" + s.key + "' in " + scope);
    }
    return true;
  }

  // ---- top level ---------------------------------------------------------

  bool top_level() {
    bool saw_mode = false;
    const bool ok = walk(ast_.settings, "the scenario", [&](const Setting& s) {
      if (s.key == "mode") {
        std::string word;
        if (!get_enum(s, {"trials", "engine", "pass"}, word)) return -1;
        spec_.mode = word == "engine"  ? ScenarioMode::Engine
                     : word == "pass" ? ScenarioMode::Pass
                                      : ScenarioMode::Trials;
        saw_mode = true;
        mode_loc_ = s.loc;
        return 1;
      }
      if (s.key == "seed") return get_u64(s, 0, ~std::uint64_t{0}, spec_.seed)
                                      ? 1 : -1;
      if (s.key == "label") return get_string(s, spec_.label) ? 1 : -1;
      if (s.key == "trials") {
        trials_loc_ = s.loc;
        saw_trials_ = true;
        return get_u64(s, 1, std::uint64_t{1} << 20, spec_.trials) ? 1 : -1;
      }
      return 0;
    });
    if (!ok) return false;
    if (!saw_mode) return fail(ast_.loc, "missing required setting 'mode'");
    return true;
  }

  // ---- sections ----------------------------------------------------------

  bool dispatch(const Section& section) {
    if (section.keyword == "topology") return topology(section);
    if (section.keyword == "paths") return paths(section);
    if (section.keyword == "protocol") return protocol(section);
    if (section.keyword == "strategy") return strategy(section);
    if (section.keyword == "schedule") return schedule(section);
    if (section.keyword == "faults") return faults(section);
    if (section.keyword == "engine") return engine(section);
    if (section.keyword == "case") return case_section(section);
    return fail(section.loc, "unknown section '" + section.keyword + "'");
  }

  bool only_in(const Section& section, ScenarioMode mode) {
    if (spec_.mode == mode) return true;
    return fail(section.loc, "section '" + section.keyword +
                                 "' is only valid in " +
                                 std::string(to_string(mode)) + " mode");
  }

  bool topology(const Section& section) {
    saw_topology_ = true;
    topology_loc_ = section.loc;
    TopologySpec& topo = spec_.topology;
    if (section.variant.empty())
      return fail(section.loc,
                  "topology section needs a family tag, e.g. 'topology ring "
                  "{ nodes 8; }'");
    topo.family = section.variant;
    const std::string scope = "topology " + topo.family;
    bool saw_dim = false, saw_side = false, saw_nodes = false,
         saw_edges = false, saw_radix = false, saw_ports = false,
         saw_levels = false;
    SourceLoc radix_loc;
    const auto handler = [&](const Setting& s) {
      if (s.key == "radix" && topo.family == "fattree") {
        saw_radix = true;
        radix_loc = s.value.loc;
        return get_u32(s, 2, 32, topo.radix) ? 1 : -1;
      }
      if (s.key == "ports" && topo.family == "bcube") {
        saw_ports = true;
        return get_u32(s, 2, 16, topo.ports) ? 1 : -1;
      }
      if (s.key == "levels" && topo.family == "bcube") {
        saw_levels = true;
        return get_u32(s, 1, 8, topo.levels) ? 1 : -1;
      }
      if (s.key == "dim" &&
          (topo.family == "butterfly" || topo.family == "hypercube")) {
        saw_dim = true;
        const std::uint64_t hi = topo.family == "butterfly" ? 16 : 20;
        return get_u32(s, 1, hi, topo.dim) ? 1 : -1;
      }
      if (s.key == "side" && topo.family == "mesh") {
        saw_side = true;
        return get_u32(s, 2, 1024, topo.side) ? 1 : -1;
      }
      if (s.key == "nodes" && (topo.family == "ring" ||
                               topo.family == "complete" ||
                               topo.family == "explicit")) {
        saw_nodes = true;
        const std::uint64_t lo = topo.family == "ring" ? 3 : 2;
        // make_complete caps K_n at 2048 nodes (~2M edges).
        const std::uint64_t hi =
            topo.family == "complete" ? 2048 : std::uint64_t{1} << 16;
        return get_u32(s, lo, hi, topo.nodes) ? 1 : -1;
      }
      if (s.key == "edges" && topo.family == "explicit") {
        saw_edges = true;
        std::vector<std::vector<std::uint64_t>> tuples;
        if (!get_tuple_list(s, {kMaxU32Field, kMaxU32Field}, "edge", tuples))
          return -1;
        for (std::size_t i = 0; i < tuples.size(); ++i)
          topo.edges.emplace_back(static_cast<std::uint32_t>(tuples[i][0]),
                                  static_cast<std::uint32_t>(tuples[i][1]));
        edges_loc_ = s.value.loc;
        return 1;
      }
      return 0;
    };
    if (topo.family == "butterfly" || topo.family == "mesh" ||
        topo.family == "ring" || topo.family == "hypercube" ||
        topo.family == "complete" || topo.family == "single_link" ||
        topo.family == "fattree" || topo.family == "bcube" ||
        topo.family == "explicit") {
      if (!walk(section.settings, scope, handler)) return false;
    } else {
      return fail(section.variant_loc,
                  "unknown topology family '" + topo.family + "'");
    }
    if ((topo.family == "butterfly" || topo.family == "hypercube") &&
        !saw_dim)
      return fail(section.loc,
                  "missing required setting 'dim' in " + scope);
    if (topo.family == "mesh" && !saw_side)
      return fail(section.loc,
                  "missing required setting 'side' in " + scope);
    if ((topo.family == "ring" || topo.family == "complete" ||
         topo.family == "explicit") && !saw_nodes)
      return fail(section.loc,
                  "missing required setting 'nodes' in " + scope);
    if (topo.family == "fattree") {
      if (!saw_radix)
        return fail(section.loc,
                    "missing required setting 'radix' in " + scope);
      if (topo.radix % 2 != 0)
        return fail(radix_loc, "fat-tree radix must be even, got " +
                                   std::to_string(topo.radix));
    }
    if (topo.family == "bcube") {
      if (!saw_ports)
        return fail(section.loc,
                    "missing required setting 'ports' in " + scope);
      if (!saw_levels)
        return fail(section.loc,
                    "missing required setting 'levels' in " + scope);
      if (topology_nodes(topo) > (std::uint64_t{1} << 16))
        return fail(section.loc,
                    "bcube is too large: got " +
                        std::to_string(topology_nodes(topo)) +
                        " nodes, the cap is 65536");
    }
    if (topo.family == "explicit") {
      if (!saw_edges)
        return fail(section.loc,
                    "missing required setting 'edges' in " + scope);
      for (const auto& [u, v] : topo.edges) {
        if (u >= topo.nodes || v >= topo.nodes)
          return fail(edges_loc_, "edge endpoint " +
                                      std::to_string(u >= topo.nodes ? u : v) +
                                      " out of range for " +
                                      std::to_string(topo.nodes) + " nodes");
        if (u == v)
          return fail(edges_loc_,
                      "self-edge " + std::to_string(u) + " is not allowed");
      }
    }
    return true;
  }

  bool paths(const Section& section) {
    saw_paths_ = true;
    paths_loc_ = section.loc;
    PathsSpec& paths = spec_.paths;
    if (section.variant.empty())
      return fail(section.loc,
                  "paths section needs a system tag, e.g. 'paths bfs { "
                  "workload permutation; }'");
    paths.system = section.variant;
    if (paths.system != "butterfly_io" &&
        paths.system != "mesh_dimension_order" && paths.system != "bfs" &&
        paths.system != "explicit")
      return fail(section.variant_loc,
                  "unknown path system '" + paths.system + "'");
    const std::string scope = "paths " + paths.system;
    bool saw_workload = false, saw_routes = false;
    const bool ok = walk(section.settings, scope, [&](const Setting& s) {
      if (s.key == "workload" && paths.system != "explicit") {
        saw_workload = true;
        return get_enum(s, {"permutation", "random_function"}, paths.workload)
                   ? 1 : -1;
      }
      if (s.key == "routes" && paths.system == "explicit") {
        saw_routes = true;
        routes_loc_ = s.value.loc;
        const Value* list = nullptr;
        if (!get_list(s, list)) return -1;
        for (const Value& route : list->items) {
          if (route.kind != Value::Kind::List) {
            fail(route.loc,
                 "expected a route list of node ids, got " + value_desc(route));
            return -1;
          }
          std::vector<std::uint32_t> nodes;
          for (const Value& node : route.items) {
            std::uint64_t id = 0;
            if (!u64_from(node, "a route node", 0, kMaxU32Field, id))
              return -1;
            nodes.push_back(static_cast<std::uint32_t>(id));
          }
          paths.routes.push_back(std::move(nodes));
        }
        return 1;
      }
      return 0;
    });
    if (!ok) return false;
    if (paths.system != "explicit" && !saw_workload)
      return fail(section.loc,
                  "missing required setting 'workload' in " + scope);
    if (paths.system == "explicit" && !saw_routes)
      return fail(section.loc,
                  "missing required setting 'routes' in " + scope);
    return true;
  }

  bool protocol(const Section& section) {
    ProtocolSpec& proto = spec_.protocol;
    const bool ok = walk(section.settings, "protocol", [&](const Setting& s) {
      if (s.key == "rule")
        return get_enum(s, {"serve_first", "priority"}, proto.rule) ? 1 : -1;
      if (s.key == "tie")
        return get_enum(s, {"kill_all", "first_wins"}, proto.tie) ? 1 : -1;
      if (s.key == "bandwidth")
        return get_u32(s, 1, 65535, proto.bandwidth) ? 1 : -1;
      if (s.key == "worm_length")
        return get_u32(s, 1, std::uint64_t{1} << 20, proto.worm_length)
                   ? 1 : -1;
      if (s.key == "max_rounds")
        return get_u32(s, 1, std::uint64_t{1} << 20, proto.max_rounds)
                   ? 1 : -1;
      if (s.key == "ack")
        return get_enum(s, {"ideal", "simulated"}, proto.ack) ? 1 : -1;
      if (s.key == "ack_length")
        return get_u32(s, 1, std::uint64_t{1} << 20, proto.ack_length)
                   ? 1 : -1;
      if (s.key == "conversion") {
        conversion_loc_ = s.loc;
        return get_enum(s, {"none", "full", "sparse"}, proto.conversion)
                   ? 1 : -1;
      }
      if (s.key == "converters") {
        converters_loc_ = s.value.loc;
        const Value* list = nullptr;
        if (!get_list(s, list)) return -1;
        for (const Value& flag : list->items) {
          std::uint64_t v = 0;
          if (!u64_from(flag, "a converter flag", 0, 1, v)) return -1;
          proto.converters.push_back(static_cast<std::uint32_t>(v));
        }
        return 1;
      }
      return 0;
    });
    if (!ok) return false;
    if (proto.conversion == "sparse" && proto.converters.empty())
      return fail(section.loc,
                  "sparse conversion requires a 'converters' flag list");
    if (proto.conversion != "sparse" && !proto.converters.empty())
      return fail(converters_loc_,
                  "'converters' is only valid with sparse conversion");
    return true;
  }

  bool strategy(const Section& section) {
    if (!only_in(section, ScenarioMode::Trials)) return false;
    saw_strategy_ = true;
    strategy_loc_ = section.loc;
    StrategySpec& strat = spec_.strategy;
    strat.declared = true;
    if (section.variant.empty())
      return fail(section.loc,
                  "strategy section needs a kind tag, e.g. 'strategy "
                  "first_fit { k 3; }'");
    strat.kind = section.variant;
    if (strat.kind != "first_fit" && strat.kind != "least_used" &&
        strat.kind != "random_fit" && strat.kind != "multipath" &&
        strat.kind != "valiant")
      return fail(section.variant_loc,
                  "unknown strategy kind '" + strat.kind + "'");
    const std::string scope = "strategy " + strat.kind;
    SourceLoc split_loc;
    bool saw_split = false;
    const bool ok = walk(section.settings, scope, [&](const Setting& s) {
      if (s.key == "k")
        return get_u32(s, 1, 16, strat.candidates) ? 1 : -1;
      if (s.key == "split") {
        saw_split = true;
        split_loc = s.loc;
        return get_u32(s, 1, 8, strat.split_ways) ? 1 : -1;
      }
      return 0;
    });
    if (!ok) return false;
    // 'split' names the multipath stripe width; pairing it with a
    // single-route assignment is a conflicting-keys error, not a knob.
    if (saw_split && strat.kind != "multipath")
      return fail(split_loc, "setting 'split' conflicts with strategy '" +
                                 strat.kind +
                                 "' (only multipath stripes requests)");
    return true;
  }

  bool schedule(const Section& section) {
    if (!only_in(section, ScenarioMode::Trials)) return false;
    ScheduleSpec& sched = spec_.schedule;
    if (section.variant.empty())
      return fail(section.loc,
                  "schedule section needs a kind tag, e.g. 'schedule paper "
                  "{ }'");
    sched.kind = section.variant;
    if (sched.kind != "paper" && sched.kind != "fixed" &&
        sched.kind != "nodelay" && sched.kind != "adaptive")
      return fail(section.variant_loc,
                  "unknown schedule kind '" + sched.kind + "'");
    const std::string scope = "schedule " + sched.kind;
    bool saw_delta = false, saw_initial = false;
    const bool ok = walk(section.settings, scope, [&](const Setting& s) {
      if (s.key == "congestion_factor" && sched.kind == "paper")
        return get_double(s, 0.0, 1e6, "(0..1000000]",
                          sched.congestion_factor, true) ? 1 : -1;
      if (s.key == "log_floor_factor" && sched.kind == "paper")
        return get_double(s, 0.0, 1e6, "(0..1000000]",
                          sched.log_floor_factor, true) ? 1 : -1;
      if (s.key == "delta" && sched.kind == "fixed") {
        saw_delta = true;
        return get_u64(s, 1, kMaxDelta, sched.delta) ? 1 : -1;
      }
      if (s.key == "initial" && sched.kind == "adaptive") {
        saw_initial = true;
        return get_u64(s, 1, kMaxDelta, sched.initial) ? 1 : -1;
      }
      return 0;
    });
    if (!ok) return false;
    if (sched.kind == "fixed" && !saw_delta)
      return fail(section.loc,
                  "missing required setting 'delta' in " + scope);
    if (sched.kind == "adaptive" && !saw_initial)
      return fail(section.loc,
                  "missing required setting 'initial' in " + scope);
    return true;
  }

  bool faults(const Section& section) {
    FaultSpec& f = spec_.faults;
    f.declared = true;
    const auto rate = [&](const Setting& s, double& out) {
      return get_double(s, 0.0, 1.0, "0..1", out) ? 1 : -1;
    };
    return walk(section.settings, "faults", [&](const Setting& s) {
      if (s.key == "link_outage_rate") return rate(s, f.link_outage_rate);
      if (s.key == "coupler_outage_rate")
        return rate(s, f.coupler_outage_rate);
      if (s.key == "stuck_wavelength_rate")
        return rate(s, f.stuck_wavelength_rate);
      if (s.key == "corruption_rate") return rate(s, f.corruption_rate);
      if (s.key == "ack_drop_rate") return rate(s, f.ack_drop_rate);
      if (s.key == "outage_period")
        return get_u64(s, 1, std::uint64_t{1} << 20, f.outage_period)
                   ? 1 : -1;
      if (s.key == "outage_duration")
        return get_u64(s, 1, std::uint64_t{1} << 20, f.outage_duration)
                   ? 1 : -1;
      if (s.key == "seed" && spec_.mode == ScenarioMode::Pass)
        return get_u64(s, 0, ~std::uint64_t{0}, f.seed) ? 1 : -1;
      if (s.key == "epoch" && spec_.mode == ScenarioMode::Pass)
        return get_u64(s, 0, kMaxFaultEpoch, f.epoch) ? 1 : -1;
      return 0;
    });
  }

  bool engine(const Section& section) {
    if (!only_in(section, ScenarioMode::Engine)) return false;
    EngineSpec& eng = spec_.engine;
    const bool ok = walk(section.settings, "engine", [&](const Setting& s) {
      if (s.key == "process")
        return get_enum(s, {"poisson", "mmpp", "trace"}, eng.process)
                   ? 1 : -1;
      if (s.key == "rate")
        return get_double(s, 0.0, 1e9, "(0..1e9]", eng.rate, true) ? 1 : -1;
      if (s.key == "mmpp_burst")
        return get_double(s, 0.0, 1e6, "(0..1000000]", eng.mmpp_burst, true)
                   ? 1 : -1;
      if (s.key == "mmpp_calm")
        return get_double(s, 0.0, 1e6, "(0..1000000]", eng.mmpp_calm, true)
                   ? 1 : -1;
      if (s.key == "mmpp_mean_dwell")
        return get_double(s, 0.0, 1e9, "(0..1e9]", eng.mmpp_mean_dwell, true)
                   ? 1 : -1;
      if (s.key == "trace") {
        const Value* list = nullptr;
        if (!get_list(s, list)) return -1;
        for (const Value& gap : list->items) {
          if (gap.kind != Value::Kind::Number) {
            fail(gap.loc, "expected a number in the trace list, got " +
                              value_desc(gap));
            return -1;
          }
          const double g = std::strtod(gap.text.c_str(), nullptr);
          if (g <= 0.0) {
            fail(gap.loc, "trace gaps must be positive, got " + gap.text);
            return -1;
          }
          eng.trace.push_back(g);
        }
        return 1;
      }
      if (s.key == "holding_time")
        return get_double(s, 0.0, 1e9, "(0..1e9]", eng.holding_time, true)
                   ? 1 : -1;
      if (s.key == "round_interval")
        return get_double(s, 0.0, 1e9, "(0..1e9]", eng.round_interval, true)
                   ? 1 : -1;
      if (s.key == "round_delta")
        return get_u64(s, 1, kMaxDelta, eng.round_delta) ? 1 : -1;
      if (s.key == "max_setup_rounds")
        return get_u32(s, 1, std::uint64_t{1} << 20, eng.max_setup_rounds)
                   ? 1 : -1;
      if (s.key == "arrivals")
        return get_u64(s, 1, std::uint64_t{1} << 40, eng.arrivals) ? 1 : -1;
      if (s.key == "warmup_divisor")
        return get_u32(s, 1, std::uint64_t{1} << 20, eng.warmup_divisor)
                   ? 1 : -1;
      if (s.key == "fit")
        return get_enum(s, {"first_fit", "random_fit"}, eng.fit) ? 1 : -1;
      if (s.key == "record") return get_bool(s, eng.record) ? 1 : -1;
      return 0;
    });
    if (!ok) return false;
    if (eng.process == "trace" && eng.trace.empty())
      return fail(section.loc,
                  "trace arrivals require a non-empty 'trace' list");
    if (eng.process != "trace" && !eng.trace.empty())
      return fail(section.loc,
                  "'trace' is only valid with the trace process");
    return true;
  }

  bool case_section(const Section& section) {
    if (!only_in(section, ScenarioMode::Pass)) return false;
    saw_case_ = true;
    bool saw_launches = false;
    const bool ok = walk(section.settings, "case", [&](const Setting& s) {
      if (s.key == "seed")
        return get_u64(s, 0, ~std::uint64_t{0}, spec_.case_seed) ? 1 : -1;
      if (s.key == "index")
        return get_u64(s, 0, ~std::uint64_t{0} >> 12, spec_.case_index)
                   ? 1 : -1;
      if (s.key == "launches") {
        saw_launches = true;
        launches_loc_ = s.value.loc;
        std::vector<std::vector<std::uint64_t>> tuples;
        // (path, start, wavelength, priority, length)
        if (!get_tuple_list(s,
                            {kMaxU32Field, kMaxLaunchStart, kMaxU32Field,
                             kMaxU32Field, kMaxU32Field},
                            "launch", tuples))
          return -1;
        for (const auto& t : tuples) {
          LaunchSpecLine line;
          line.path = static_cast<std::uint32_t>(t[0]);
          line.start = t[1];
          line.wavelength = static_cast<std::uint32_t>(t[2]);
          line.priority = static_cast<std::uint32_t>(t[3]);
          line.length = static_cast<std::uint32_t>(t[4]);
          if (line.length == 0) {
            fail(s.value.loc, "launch lengths must be at least 1");
            return -1;
          }
          spec_.launches.push_back(line);
        }
        return 1;
      }
      if (s.key == "pinned") {
        std::vector<std::vector<std::uint64_t>> tuples;
        if (!get_tuple_list(s, {kMaxU32Field, kMaxU32Field}, "pinned-slot",
                            tuples))
          return -1;
        for (const auto& t : tuples)
          spec_.pinned.emplace_back(static_cast<std::uint32_t>(t[0]),
                                    static_cast<std::uint32_t>(t[1]));
        return 1;
      }
      return 0;
    });
    if (!ok) return false;
    if (!saw_launches)
      return fail(section.loc, "missing required setting 'launches' in case");
    return true;
  }

  // ---- cross-section / mode checks ---------------------------------------

  bool finish() {
    if (!saw_topology_)
      return fail(ast_.loc, "missing required section 'topology'");
    if (spec_.label.empty()) spec_.label = slugify(spec_.name);

    if (spec_.mode == ScenarioMode::Trials || spec_.mode == ScenarioMode::Pass) {
      if (!saw_paths_)
        return fail(ast_.loc, "missing required section 'paths'");
    }
    if (spec_.mode == ScenarioMode::Engine && saw_paths_)
      return fail(paths_loc_,
                  "section 'paths' is not valid in engine mode (the engine "
                  "builds its own BFS routes)");
    if (saw_trials_ && spec_.mode != ScenarioMode::Trials)
      return fail(trials_loc_,
                  "setting 'trials' is only valid in trials mode");

    const std::string& system = spec_.paths.system;
    if (saw_paths_) {
      if (system == "butterfly_io" && spec_.topology.family != "butterfly")
        return fail(paths_loc_, "path system 'butterfly_io' requires a "
                                    "butterfly topology (got '" +
                                    spec_.topology.family + "')");
      if (system == "mesh_dimension_order" && spec_.topology.family != "mesh")
        return fail(paths_loc_, "path system 'mesh_dimension_order' requires "
                                    "a mesh topology (got '" +
                                    spec_.topology.family + "')");
    }
    if (saw_strategy_ && saw_paths_ && system != "bfs")
      return fail(strategy_loc_,
                  "strategy blocks require the bfs path system (strategies "
                  "choose their own routes; paths supply the workload)");

    if (spec_.mode == ScenarioMode::Pass) {
      if (spec_.topology.family != "explicit")
        return fail(ast_.loc, "pass mode requires an explicit topology");
      if (system != "explicit")
        return fail(paths_loc_, "pass mode requires explicit paths");
      if (!saw_case_)
        return fail(ast_.loc, "missing required section 'case'");
      for (const auto& route : spec_.paths.routes) {
        for (const std::uint32_t node : route) {
          if (node >= spec_.topology.nodes)
            return fail(routes_loc_,
                        "route node " + std::to_string(node) +
                            " out of range for " +
                            std::to_string(spec_.topology.nodes) + " nodes");
        }
      }
      const std::uint64_t links = 2 * spec_.topology.edges.size();
      for (const LaunchSpecLine& line : spec_.launches) {
        if (line.path >= spec_.paths.routes.size())
          return fail(launches_loc_,
                      "launch path " + std::to_string(line.path) +
                          " out of range for " +
                          std::to_string(spec_.paths.routes.size()) +
                          " routes");
        if (line.wavelength >= spec_.protocol.bandwidth)
          return fail(launches_loc_,
                      "launch wavelength " + std::to_string(line.wavelength) +
                          " out of range for bandwidth " +
                          std::to_string(spec_.protocol.bandwidth));
      }
      for (const auto& [link, wavelength] : spec_.pinned) {
        if (link >= links)
          return fail(ast_.loc, "pinned link " + std::to_string(link) +
                                    " out of range for " +
                                    std::to_string(links) +
                                    " directed links");
        if (wavelength >= spec_.protocol.bandwidth)
          return fail(ast_.loc,
                      "pinned wavelength " + std::to_string(wavelength) +
                          " out of range for bandwidth " +
                          std::to_string(spec_.protocol.bandwidth));
      }
    }

    if (spec_.protocol.conversion == "sparse") {
      const std::uint64_t nodes = topology_nodes(spec_.topology);
      if (spec_.protocol.converters.size() != nodes)
        return fail(converters_loc_,
                    "'converters' needs one flag per node: got " +
                        std::to_string(spec_.protocol.converters.size()) +
                        ", topology has " + std::to_string(nodes) + " nodes");
    }
    if (std::string budget = channel_budget_error(spec_); !budget.empty())
      return fail(topology_loc_, std::move(budget));
    if (spec_.mode == ScenarioMode::Engine) {
      const std::uint64_t nodes = topology_nodes(spec_.topology);
      const std::uint64_t hops = topology_diameter(spec_.topology);
      if (!route_table_fits(nodes, hops))
        return fail(topology_loc_,
                    "engine route table too large: topology " +
                        spec_.topology.family + " has " +
                        std::to_string(nodes * (nodes - 1)) +
                        " ordered node pairs x routes of up to " +
                        std::to_string(hops) + " hops = " +
                        std::to_string(nodes * (nodes - 1) * hops) +
                        " hops, the cap is " +
                        std::to_string(kMaxRouteTableHops));
    }
    // The engine routes every node pair and the bfs path system (which
    // strategies require) routes random ones, so both need every node
    // reachable; explicit paths name their own routes and may not.
    const bool routes_all_pairs =
        spec_.mode == ScenarioMode::Engine ||
        (spec_.mode == ScenarioMode::Trials && system == "bfs");
    if (spec_.topology.family == "explicit" && routes_all_pairs) {
      if (const std::uint32_t node = unreachable_node(spec_.topology);
          node != 0)
        return fail(topology_loc_,
                    "explicit topology is disconnected: node " +
                        std::to_string(node) +
                        " is unreachable from node 0, and " +
                        (spec_.mode == ScenarioMode::Engine
                             ? std::string("engine mode")
                             : std::string("path system 'bfs'")) +
                        " routes between any two nodes");
    }
    return true;
  }

  const ScenarioAst& ast_;
  ScenarioSpec& spec_;
  DslError& error_;

  bool saw_topology_ = false;
  bool saw_paths_ = false;
  bool saw_case_ = false;
  bool saw_trials_ = false;
  bool saw_strategy_ = false;
  SourceLoc strategy_loc_;
  SourceLoc mode_loc_;
  SourceLoc topology_loc_;
  SourceLoc trials_loc_;
  SourceLoc paths_loc_;
  SourceLoc routes_loc_;
  SourceLoc edges_loc_;
  SourceLoc launches_loc_;
  SourceLoc conversion_loc_;
  SourceLoc converters_loc_;
};

}  // namespace

bool validate(const ScenarioAst& ast, ScenarioSpec& spec, DslError& error) {
  return Validator(ast, spec, error).run();
}

bool load_opto_text(std::string_view source, const std::string& file,
                    ScenarioSpec& spec, DslError& error) {
  ScenarioAst ast;
  if (!parse_program(source, file, ast, error)) return false;
  return validate(ast, spec, error);
}

bool load_scenario_text(std::string_view source, const std::string& file,
                        ScenarioSpec& spec, DslError& error) {
  std::size_t i = 0;
  while (i < source.size() &&
         std::isspace(static_cast<unsigned char>(source[i])))
    ++i;
  if (i < source.size() && source[i] == '{') {
    std::string json_error;
    const auto doc = parse_json(source, &json_error);
    if (!doc) {
      error = DslError{file, SourceLoc{}, "invalid JSON: " + json_error};
      return false;
    }
    return from_scenario_json(*doc, file, spec, error);
  }
  return load_opto_text(source, file, spec, error);
}

LoadStatus load_scenario_file(const std::string& path, ScenarioSpec& spec,
                              DslError& error) {
  // std::ifstream opens a directory on Linux and reads it as empty. A
  // path that cannot be examined is left to fail the open.
  std::error_code ignored;
  std::ifstream in;
  if (!std::filesystem::is_directory(path, ignored))
    in.open(path, std::ios::binary);
  if (!in.is_open()) {
    error = DslError{path, SourceLoc{}, "cannot read file"};
    return LoadStatus::Unreadable;
  }
  std::ostringstream text;
  text << in.rdbuf();
  return load_scenario_text(text.str(), path, spec, error)
             ? LoadStatus::Ok
             : LoadStatus::Invalid;
}

}  // namespace opto::dsl
