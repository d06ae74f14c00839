#include "opto/dsl/canonical.hpp"

#include <cerrno>
#include <cstdlib>
#include <sstream>

#include "opto/dsl/validate.hpp"

namespace opto::dsl {

namespace {

JsonValue dec(std::uint64_t value) {
  return JsonValue::of(std::to_string(value));
}

JsonValue num(std::uint64_t value) {
  return JsonValue::of(static_cast<double>(value));
}

JsonValue tuple2(std::uint64_t a, std::uint64_t b) {
  JsonValue pair = JsonValue::make_array();
  pair.items.push_back(num(a));
  pair.items.push_back(num(b));
  return pair;
}

JsonValue topology_json(const TopologySpec& topo) {
  JsonValue out = JsonValue::make_object();
  out.add_member("family", JsonValue::of(topo.family));
  if (topo.family == "butterfly" || topo.family == "hypercube")
    out.add_member("dim", num(topo.dim));
  if (topo.family == "mesh") out.add_member("side", num(topo.side));
  if (topo.family == "ring" || topo.family == "complete" ||
      topo.family == "explicit")
    out.add_member("nodes", num(topo.nodes));
  if (topo.family == "fattree") out.add_member("radix", num(topo.radix));
  if (topo.family == "bcube") {
    out.add_member("ports", num(topo.ports));
    out.add_member("levels", num(topo.levels));
  }
  if (topo.family == "explicit") {
    JsonValue edges = JsonValue::make_array();
    for (const auto& [u, v] : topo.edges) edges.items.push_back(tuple2(u, v));
    out.add_member("edges", std::move(edges));
  }
  return out;
}

JsonValue paths_json(const PathsSpec& paths) {
  JsonValue out = JsonValue::make_object();
  out.add_member("system", JsonValue::of(paths.system));
  if (paths.system == "explicit") {
    JsonValue routes = JsonValue::make_array();
    for (const auto& route : paths.routes) {
      JsonValue nodes = JsonValue::make_array();
      for (const std::uint32_t node : route) nodes.items.push_back(num(node));
      routes.items.push_back(std::move(nodes));
    }
    out.add_member("routes", std::move(routes));
  } else {
    out.add_member("workload", JsonValue::of(paths.workload));
  }
  return out;
}

JsonValue protocol_json(const ProtocolSpec& proto) {
  JsonValue out = JsonValue::make_object();
  out.add_member("rule", JsonValue::of(proto.rule));
  out.add_member("tie", JsonValue::of(proto.tie));
  out.add_member("bandwidth", num(proto.bandwidth));
  out.add_member("worm_length", num(proto.worm_length));
  out.add_member("max_rounds", num(proto.max_rounds));
  out.add_member("ack", JsonValue::of(proto.ack));
  out.add_member("ack_length", num(proto.ack_length));
  out.add_member("conversion", JsonValue::of(proto.conversion));
  if (proto.conversion == "sparse") {
    JsonValue flags = JsonValue::make_array();
    for (const std::uint32_t flag : proto.converters)
      flags.items.push_back(num(flag));
    out.add_member("converters", std::move(flags));
  }
  return out;
}

JsonValue strategy_json(const StrategySpec& strat) {
  JsonValue out = JsonValue::make_object();
  out.add_member("kind", JsonValue::of(strat.kind));
  out.add_member("k", num(strat.candidates));
  if (strat.kind == "multipath") out.add_member("split", num(strat.split_ways));
  return out;
}

JsonValue schedule_json(const ScheduleSpec& sched) {
  JsonValue out = JsonValue::make_object();
  out.add_member("kind", JsonValue::of(sched.kind));
  if (sched.kind == "paper") {
    out.add_member("congestion_factor", JsonValue::of(sched.congestion_factor));
    out.add_member("log_floor_factor", JsonValue::of(sched.log_floor_factor));
  }
  if (sched.kind == "fixed") out.add_member("delta", num(sched.delta));
  if (sched.kind == "adaptive") out.add_member("initial", num(sched.initial));
  return out;
}

JsonValue faults_json(const FaultSpec& faults, ScenarioMode mode) {
  JsonValue out = JsonValue::make_object();
  out.add_member("link_outage_rate", JsonValue::of(faults.link_outage_rate));
  out.add_member("coupler_outage_rate",
                 JsonValue::of(faults.coupler_outage_rate));
  out.add_member("outage_period", num(faults.outage_period));
  out.add_member("outage_duration", num(faults.outage_duration));
  out.add_member("stuck_wavelength_rate",
                 JsonValue::of(faults.stuck_wavelength_rate));
  out.add_member("corruption_rate", JsonValue::of(faults.corruption_rate));
  out.add_member("ack_drop_rate", JsonValue::of(faults.ack_drop_rate));
  if (mode == ScenarioMode::Pass) {
    out.add_member("seed", dec(faults.seed));
    out.add_member("epoch", dec(faults.epoch));
  }
  return out;
}

JsonValue engine_json(const EngineSpec& eng) {
  JsonValue out = JsonValue::make_object();
  out.add_member("process", JsonValue::of(eng.process));
  out.add_member("rate", JsonValue::of(eng.rate));
  if (eng.process == "mmpp") {
    out.add_member("mmpp_burst", JsonValue::of(eng.mmpp_burst));
    out.add_member("mmpp_calm", JsonValue::of(eng.mmpp_calm));
    out.add_member("mmpp_mean_dwell", JsonValue::of(eng.mmpp_mean_dwell));
  }
  if (eng.process == "trace") {
    JsonValue gaps = JsonValue::make_array();
    for (const double gap : eng.trace)
      gaps.items.push_back(JsonValue::of(gap));
    out.add_member("trace", std::move(gaps));
  }
  out.add_member("holding_time", JsonValue::of(eng.holding_time));
  out.add_member("round_interval", JsonValue::of(eng.round_interval));
  out.add_member("round_delta", num(eng.round_delta));
  out.add_member("max_setup_rounds", num(eng.max_setup_rounds));
  out.add_member("arrivals", num(eng.arrivals));
  out.add_member("warmup_divisor", num(eng.warmup_divisor));
  out.add_member("fit", JsonValue::of(eng.fit));
  out.add_member("record", JsonValue::of(eng.record));
  return out;
}

JsonValue case_json(const ScenarioSpec& spec) {
  JsonValue out = JsonValue::make_object();
  out.add_member("seed", dec(spec.case_seed));
  out.add_member("index", num(spec.case_index));
  JsonValue launches = JsonValue::make_array();
  for (const LaunchSpecLine& line : spec.launches) {
    JsonValue entry = JsonValue::make_array();
    entry.items.push_back(num(line.path));
    entry.items.push_back(num(line.start));
    entry.items.push_back(num(line.wavelength));
    entry.items.push_back(num(line.priority));
    entry.items.push_back(num(line.length));
    launches.items.push_back(std::move(entry));
  }
  out.add_member("launches", std::move(launches));
  if (!spec.pinned.empty()) {
    JsonValue pinned = JsonValue::make_array();
    for (const auto& [link, wavelength] : spec.pinned)
      pinned.items.push_back(tuple2(link, wavelength));
    out.add_member("pinned", std::move(pinned));
  }
  return out;
}

JsonValue scenario_json(const ScenarioSpec& spec) {
  JsonValue root = JsonValue::make_object();
  root.add_member("schema", JsonValue::of(kScenarioSchema));
  root.add_member("schema_version",
                  JsonValue::of(static_cast<double>(kScenarioSchemaVersion)));
  root.add_member("name", JsonValue::of(spec.name));
  root.add_member("mode", JsonValue::of(to_string(spec.mode)));
  root.add_member("seed", dec(spec.seed));
  root.add_member("label", JsonValue::of(spec.label));
  root.add_member("topology", topology_json(spec.topology));
  root.add_member("protocol", protocol_json(spec.protocol));
  if (spec.mode == ScenarioMode::Trials) {
    root.add_member("trials", num(spec.trials));
    root.add_member("schedule", schedule_json(spec.schedule));
    if (spec.strategy.declared)
      root.add_member("strategy", strategy_json(spec.strategy));
  }
  if (spec.mode != ScenarioMode::Engine)
    root.add_member("paths", paths_json(spec.paths));
  if (spec.mode == ScenarioMode::Engine)
    root.add_member("engine", engine_json(spec.engine));
  if (spec.faults.declared)
    root.add_member("faults", faults_json(spec.faults, spec.mode));
  if (spec.mode == ScenarioMode::Pass)
    root.add_member("case", case_json(spec));
  return root;
}

}  // namespace

std::string canonical_text(const ScenarioSpec& spec) {
  std::ostringstream os;
  write_json(os, scenario_json(spec), /*sorted_keys=*/true);
  os << '\n';
  return os.str();
}

// ---- strict loader --------------------------------------------------------

namespace {

/// Mirrors the .opto validator but over JSON values; errors name the key
/// path instead of a line/col (JSON inputs are machine-written).
class JsonLoader {
 public:
  JsonLoader(const std::string& file, ScenarioSpec& spec, DslError& error)
      : file_(file), spec_(spec), error_(error) {}

  bool run(const JsonValue& doc) {
    spec_ = ScenarioSpec{};
    if (!doc.is_object()) return fail("the document is not a JSON object");
    if (doc.string_at("schema") != kScenarioSchema)
      return fail("expected schema \"" + std::string(kScenarioSchema) +
                  "\", got \"" + doc.string_at("schema") + "\"");
    if (doc.number_at("schema_version") != kScenarioSchemaVersion)
      return fail("unsupported schema_version");

    const std::string mode = doc.string_at("mode");
    if (mode == "trials") spec_.mode = ScenarioMode::Trials;
    else if (mode == "engine") spec_.mode = ScenarioMode::Engine;
    else if (mode == "pass") spec_.mode = ScenarioMode::Pass;
    else return fail("unknown mode '" + mode + "'");

    for (const auto& [key, value] : doc.members) {
      if (key == "schema" || key == "schema_version" || key == "mode")
        continue;
      if (key == "name") spec_.name = value.as_string();
      else if (key == "label") spec_.label = value.as_string();
      else if (key == "seed") {
        if (!read_seed(value, "seed", spec_.seed)) return false;
      } else if (key == "trials") {
        if (spec_.mode != ScenarioMode::Trials)
          return fail("'trials' is only valid in trials mode");
        if (!read_u64(value, "trials", 1, std::uint64_t{1} << 20,
                      spec_.trials))
          return false;
      } else if (key == "topology") {
        if (!topology(value)) return false;
      } else if (key == "paths") {
        if (spec_.mode == ScenarioMode::Engine)
          return fail("'paths' is not valid in engine mode");
        if (!paths(value)) return false;
      } else if (key == "protocol") {
        if (!protocol(value)) return false;
      } else if (key == "schedule") {
        if (spec_.mode != ScenarioMode::Trials)
          return fail("'schedule' is only valid in trials mode");
        if (!schedule(value)) return false;
      } else if (key == "strategy") {
        if (spec_.mode != ScenarioMode::Trials)
          return fail("'strategy' is only valid in trials mode");
        if (!strategy(value)) return false;
      } else if (key == "faults") {
        if (!faults(value)) return false;
      } else if (key == "engine") {
        if (spec_.mode != ScenarioMode::Engine)
          return fail("'engine' is only valid in engine mode");
        if (!engine(value)) return false;
      } else if (key == "case") {
        if (spec_.mode != ScenarioMode::Pass)
          return fail("'case' is only valid in pass mode");
        if (!case_object(value)) return false;
      } else {
        return fail("unknown key '" + key + "'");
      }
    }

    if (spec_.topology.family.empty()) return fail("missing 'topology'");
    if (spec_.mode != ScenarioMode::Engine && spec_.paths.system.empty())
      return fail("missing 'paths'");
    if (spec_.mode == ScenarioMode::Pass && !saw_case_)
      return fail("missing 'case'");
    if (spec_.label.empty()) return fail("missing 'label'");
    if (std::string budget = channel_budget_error(spec_); !budget.empty())
      return fail(std::move(budget));
    return true;
  }

 private:
  bool fail(std::string message) {
    error_ = DslError{file_, SourceLoc{}, std::move(message)};
    return false;
  }

  bool read_seed(const JsonValue& value, const std::string& key,
                 std::uint64_t& out, std::uint64_t hi = ~std::uint64_t{0}) {
    if (!value.is_string())
      return fail("'" + key + "' must be a decimal string");
    errno = 0;
    char* end = nullptr;
    out = std::strtoull(value.text.c_str(), &end, 10);
    if (value.text.empty() || *end != '\0' || errno == ERANGE)
      return fail("'" + key + "' is not a decimal: \"" + value.text + "\"");
    if (out > hi)
      return fail("'" + key + "' out of range: got " + value.text +
                  ", expected 0.." + std::to_string(hi));
    return true;
  }

  bool read_u64(const JsonValue& value, const std::string& key,
                std::uint64_t lo, std::uint64_t hi, std::uint64_t& out) {
    if (!value.is_number() || value.number < 0 ||
        value.number != static_cast<double>(
                            static_cast<std::uint64_t>(value.number)))
      return fail("'" + key + "' must be a non-negative integer");
    out = static_cast<std::uint64_t>(value.number);
    if (out < lo || out > hi)
      return fail("'" + key + "' out of range: expected " +
                  std::to_string(lo) + ".." + std::to_string(hi));
    return true;
  }

  bool read_u32(const JsonValue& value, const std::string& key,
                std::uint64_t lo, std::uint64_t hi, std::uint32_t& out) {
    std::uint64_t wide = 0;
    if (!read_u64(value, key, lo, hi, wide)) return false;
    out = static_cast<std::uint32_t>(wide);
    return true;
  }

  bool read_double(const JsonValue& value, const std::string& key, double lo,
                   double hi, double& out, bool lo_exclusive = false) {
    if (!value.is_number()) return fail("'" + key + "' must be a number");
    out = value.number;
    const bool below = lo_exclusive ? out <= lo : out < lo;
    if (below || out > hi) return fail("'" + key + "' out of range");
    return true;
  }

  bool read_enum(const JsonValue& value, const std::string& key,
                 const std::vector<std::string>& options, std::string& out) {
    if (!value.is_string()) return fail("'" + key + "' must be a string");
    for (const std::string& option : options) {
      if (value.text == option) {
        out = option;
        return true;
      }
    }
    return fail("unknown value '" + value.text + "' for '" + key + "'");
  }

  /// Fixed-arity integer tuples; field i must lie in 0..hi[i], and the
  /// arity is hi.size().
  bool read_tuples(const JsonValue& value, const std::string& key,
                   const std::vector<std::uint64_t>& hi,
                   std::vector<std::vector<std::uint64_t>>& out) {
    const std::size_t arity = hi.size();
    if (!value.is_array()) return fail("'" + key + "' must be an array");
    for (const JsonValue& item : value.items) {
      if (!item.is_array() || item.items.size() != arity)
        return fail("'" + key + "' entries must be arrays of " +
                    std::to_string(arity) + " integers");
      std::vector<std::uint64_t> tuple;
      for (std::size_t i = 0; i < arity; ++i) {
        std::uint64_t v = 0;
        if (!read_u64(item.items[i], key, 0, hi[i], v)) return false;
        tuple.push_back(v);
      }
      out.push_back(std::move(tuple));
    }
    return true;
  }

  bool topology(const JsonValue& object) {
    TopologySpec& topo = spec_.topology;
    if (!object.is_object()) return fail("'topology' must be an object");
    const JsonValue* edges_value = nullptr;
    topo.family = object.string_at("family");
    if (topo.family != "butterfly" && topo.family != "mesh" &&
        topo.family != "ring" && topo.family != "hypercube" &&
        topo.family != "complete" && topo.family != "single_link" &&
        topo.family != "fattree" && topo.family != "bcube" &&
        topo.family != "explicit")
      return fail("unknown topology family '" + topo.family + "'");
    for (const auto& [key, value] : object.members) {
      if (key == "family") continue;
      if (key == "dim" &&
          (topo.family == "butterfly" || topo.family == "hypercube")) {
        if (!read_u32(value, "dim", 1, topo.family == "butterfly" ? 16 : 20,
                      topo.dim))
          return false;
      } else if (key == "side" && topo.family == "mesh") {
        if (!read_u32(value, "side", 2, 1024, topo.side)) return false;
      } else if (key == "nodes" &&
                 (topo.family == "ring" || topo.family == "complete" ||
                  topo.family == "explicit")) {
        if (!read_u32(value, "nodes", topo.family == "ring" ? 3 : 2,
                      std::uint64_t{1} << 16, topo.nodes))
          return false;
      } else if (key == "radix" && topo.family == "fattree") {
        if (!read_u32(value, "radix", 2, 32, topo.radix)) return false;
        if (topo.radix % 2 != 0)
          return fail("fat-tree radix must be even");
      } else if (key == "ports" && topo.family == "bcube") {
        if (!read_u32(value, "ports", 2, 16, topo.ports)) return false;
      } else if (key == "levels" && topo.family == "bcube") {
        if (!read_u32(value, "levels", 1, 8, topo.levels)) return false;
      } else if (key == "edges" && topo.family == "explicit") {
        // Sorted keys put "edges" before "nodes"; defer the range check
        // until the whole object is read.
        edges_value = &value;
      } else {
        return fail("unknown key '" + key + "' in topology");
      }
    }
    if ((topo.family == "butterfly" || topo.family == "hypercube") &&
        topo.dim == 0)
      return fail("missing 'dim' in topology");
    if (topo.family == "mesh" && topo.side == 0)
      return fail("missing 'side' in topology");
    if ((topo.family == "ring" || topo.family == "complete" ||
         topo.family == "explicit") && topo.nodes == 0)
      return fail("missing 'nodes' in topology");
    if (topo.family == "fattree" && topo.radix == 0)
      return fail("missing 'radix' in topology");
    if (topo.family == "bcube" && (topo.ports == 0 || topo.levels == 0))
      return fail("missing 'ports' or 'levels' in topology");
    if (edges_value != nullptr) {
      std::vector<std::vector<std::uint64_t>> tuples;
      if (!read_tuples(*edges_value, "edges", {kMaxU32Field, kMaxU32Field},
                       tuples))
        return false;
      for (const auto& t : tuples) {
        if (t[0] >= topo.nodes || t[1] >= topo.nodes || t[0] == t[1])
          return fail("invalid edge in 'edges'");
        topo.edges.emplace_back(static_cast<std::uint32_t>(t[0]),
                                static_cast<std::uint32_t>(t[1]));
      }
    } else if (topo.family == "explicit") {
      return fail("missing 'edges' in topology");
    }
    return true;
  }

  bool paths(const JsonValue& object) {
    PathsSpec& paths = spec_.paths;
    if (!object.is_object()) return fail("'paths' must be an object");
    paths.system = object.string_at("system");
    if (paths.system != "butterfly_io" &&
        paths.system != "mesh_dimension_order" && paths.system != "bfs" &&
        paths.system != "explicit")
      return fail("unknown path system '" + paths.system + "'");
    for (const auto& [key, value] : object.members) {
      if (key == "system") continue;
      if (key == "workload" && paths.system != "explicit") {
        if (!read_enum(value, "workload", {"permutation", "random_function"},
                       paths.workload))
          return false;
      } else if (key == "routes" && paths.system == "explicit") {
        if (!value.is_array()) return fail("'routes' must be an array");
        for (const JsonValue& route : value.items) {
          if (!route.is_array())
            return fail("'routes' entries must be arrays");
          std::vector<std::uint32_t> nodes;
          for (const JsonValue& node : route.items) {
            std::uint64_t id = 0;
            if (!read_u64(node, "routes", 0, kMaxU32Field, id))
              return false;
            nodes.push_back(static_cast<std::uint32_t>(id));
          }
          paths.routes.push_back(std::move(nodes));
        }
      } else {
        return fail("unknown key '" + key + "' in paths");
      }
    }
    if (paths.system != "explicit" && paths.workload.empty())
      return fail("missing 'workload' in paths");
    return true;
  }

  bool protocol(const JsonValue& object) {
    ProtocolSpec& proto = spec_.protocol;
    if (!object.is_object()) return fail("'protocol' must be an object");
    for (const auto& [key, value] : object.members) {
      if (key == "rule") {
        if (!read_enum(value, "rule", {"serve_first", "priority"},
                       proto.rule))
          return false;
      } else if (key == "tie") {
        if (!read_enum(value, "tie", {"kill_all", "first_wins"}, proto.tie))
          return false;
      } else if (key == "bandwidth") {
        if (!read_u32(value, "bandwidth", 1, 65535, proto.bandwidth))
          return false;
      } else if (key == "worm_length") {
        if (!read_u32(value, "worm_length", 1, std::uint64_t{1} << 20,
                      proto.worm_length))
          return false;
      } else if (key == "max_rounds") {
        if (!read_u32(value, "max_rounds", 1, std::uint64_t{1} << 20,
                      proto.max_rounds))
          return false;
      } else if (key == "ack") {
        if (!read_enum(value, "ack", {"ideal", "simulated"}, proto.ack))
          return false;
      } else if (key == "ack_length") {
        if (!read_u32(value, "ack_length", 1, std::uint64_t{1} << 20,
                      proto.ack_length))
          return false;
      } else if (key == "conversion") {
        if (!read_enum(value, "conversion", {"none", "full", "sparse"},
                       proto.conversion))
          return false;
      } else if (key == "converters") {
        if (!value.is_array()) return fail("'converters' must be an array");
        for (const JsonValue& flag : value.items) {
          std::uint64_t v = 0;
          if (!read_u64(flag, "converters", 0, 1, v)) return false;
          proto.converters.push_back(static_cast<std::uint32_t>(v));
        }
      } else {
        return fail("unknown key '" + key + "' in protocol");
      }
    }
    if (proto.conversion == "sparse" && proto.converters.empty())
      return fail("sparse conversion requires 'converters'");
    if (proto.conversion != "sparse" && !proto.converters.empty())
      return fail("'converters' is only valid with sparse conversion");
    return true;
  }

  bool schedule(const JsonValue& object) {
    ScheduleSpec& sched = spec_.schedule;
    if (!object.is_object()) return fail("'schedule' must be an object");
    sched.kind = object.string_at("kind");
    if (sched.kind != "paper" && sched.kind != "fixed" &&
        sched.kind != "nodelay" && sched.kind != "adaptive")
      return fail("unknown schedule kind '" + sched.kind + "'");
    for (const auto& [key, value] : object.members) {
      if (key == "kind") continue;
      if (key == "congestion_factor" && sched.kind == "paper") {
        if (!read_double(value, "congestion_factor", 0.0, 1e6,
                         sched.congestion_factor, true))
          return false;
      } else if (key == "log_floor_factor" && sched.kind == "paper") {
        if (!read_double(value, "log_floor_factor", 0.0, 1e6,
                         sched.log_floor_factor, true))
          return false;
      } else if (key == "delta" && sched.kind == "fixed") {
        if (!read_u64(value, "delta", 1, kMaxDelta, sched.delta))
          return false;
      } else if (key == "initial" && sched.kind == "adaptive") {
        if (!read_u64(value, "initial", 1, kMaxDelta, sched.initial))
          return false;
      } else {
        return fail("unknown key '" + key + "' in schedule");
      }
    }
    return true;
  }

  bool strategy(const JsonValue& object) {
    StrategySpec& strat = spec_.strategy;
    strat.declared = true;
    if (!object.is_object()) return fail("'strategy' must be an object");
    strat.kind = object.string_at("kind");
    if (strat.kind != "first_fit" && strat.kind != "least_used" &&
        strat.kind != "random_fit" && strat.kind != "multipath" &&
        strat.kind != "valiant")
      return fail("unknown strategy kind '" + strat.kind + "'");
    for (const auto& [key, value] : object.members) {
      if (key == "kind") continue;
      if (key == "k") {
        if (!read_u32(value, "k", 1, 16, strat.candidates)) return false;
      } else if (key == "split" && strat.kind == "multipath") {
        if (!read_u32(value, "split", 1, 8, strat.split_ways)) return false;
      } else {
        return fail("unknown key '" + key + "' in strategy");
      }
    }
    return true;
  }

  bool faults(const JsonValue& object) {
    FaultSpec& f = spec_.faults;
    f.declared = true;
    if (!object.is_object()) return fail("'faults' must be an object");
    for (const auto& [key, value] : object.members) {
      if (key == "link_outage_rate") {
        if (!read_double(value, key, 0.0, 1.0, f.link_outage_rate))
          return false;
      } else if (key == "coupler_outage_rate") {
        if (!read_double(value, key, 0.0, 1.0, f.coupler_outage_rate))
          return false;
      } else if (key == "stuck_wavelength_rate") {
        if (!read_double(value, key, 0.0, 1.0, f.stuck_wavelength_rate))
          return false;
      } else if (key == "corruption_rate") {
        if (!read_double(value, key, 0.0, 1.0, f.corruption_rate))
          return false;
      } else if (key == "ack_drop_rate") {
        if (!read_double(value, key, 0.0, 1.0, f.ack_drop_rate))
          return false;
      } else if (key == "outage_period") {
        if (!read_u64(value, key, 1, std::uint64_t{1} << 20, f.outage_period))
          return false;
      } else if (key == "outage_duration") {
        if (!read_u64(value, key, 1, std::uint64_t{1} << 20,
                      f.outage_duration))
          return false;
      } else if (key == "seed" && spec_.mode == ScenarioMode::Pass) {
        if (!read_seed(value, "faults.seed", f.seed)) return false;
      } else if (key == "epoch" && spec_.mode == ScenarioMode::Pass) {
        if (!read_seed(value, "faults.epoch", f.epoch, kMaxFaultEpoch))
          return false;
      } else {
        return fail("unknown key '" + key + "' in faults");
      }
    }
    return true;
  }

  bool engine(const JsonValue& object) {
    EngineSpec& eng = spec_.engine;
    if (!object.is_object()) return fail("'engine' must be an object");
    eng.process = object.string_at("process", eng.process);
    for (const auto& [key, value] : object.members) {
      if (key == "process") {
        if (!read_enum(value, "process", {"poisson", "mmpp", "trace"},
                       eng.process))
          return false;
      } else if (key == "rate") {
        if (!read_double(value, "rate", 0.0, 1e9, eng.rate, true))
          return false;
      } else if (key == "mmpp_burst" && eng.process == "mmpp") {
        if (!read_double(value, key, 0.0, 1e6, eng.mmpp_burst, true))
          return false;
      } else if (key == "mmpp_calm" && eng.process == "mmpp") {
        if (!read_double(value, key, 0.0, 1e6, eng.mmpp_calm, true))
          return false;
      } else if (key == "mmpp_mean_dwell" && eng.process == "mmpp") {
        if (!read_double(value, key, 0.0, 1e9, eng.mmpp_mean_dwell, true))
          return false;
      } else if (key == "trace" && eng.process == "trace") {
        if (!value.is_array()) return fail("'trace' must be an array");
        for (const JsonValue& gap : value.items) {
          if (!gap.is_number() || gap.number <= 0.0)
            return fail("trace gaps must be positive numbers");
          eng.trace.push_back(gap.number);
        }
        if (eng.trace.empty()) return fail("'trace' must be non-empty");
      } else if (key == "holding_time") {
        if (!read_double(value, key, 0.0, 1e9, eng.holding_time, true))
          return false;
      } else if (key == "round_interval") {
        if (!read_double(value, key, 0.0, 1e9, eng.round_interval, true))
          return false;
      } else if (key == "round_delta") {
        if (!read_u64(value, key, 1, kMaxDelta, eng.round_delta))
          return false;
      } else if (key == "max_setup_rounds") {
        if (!read_u32(value, key, 1, std::uint64_t{1} << 20,
                      eng.max_setup_rounds))
          return false;
      } else if (key == "arrivals") {
        if (!read_u64(value, key, 1, std::uint64_t{1} << 40, eng.arrivals))
          return false;
      } else if (key == "warmup_divisor") {
        if (!read_u32(value, key, 1, std::uint64_t{1} << 20,
                      eng.warmup_divisor))
          return false;
      } else if (key == "fit") {
        if (!read_enum(value, "fit", {"first_fit", "random_fit"}, eng.fit))
          return false;
      } else if (key == "record") {
        if (value.kind != JsonValue::Kind::Bool)
          return fail("'record' must be a boolean");
        eng.record = value.boolean;
      } else {
        return fail("unknown key '" + key + "' in engine");
      }
    }
    return true;
  }

  bool case_object(const JsonValue& object) {
    saw_case_ = true;
    if (!object.is_object()) return fail("'case' must be an object");
    for (const auto& [key, value] : object.members) {
      if (key == "seed") {
        if (!read_seed(value, "case.seed", spec_.case_seed)) return false;
      } else if (key == "index") {
        if (!read_u64(value, "index", 0, ~std::uint64_t{0} >> 12,
                      spec_.case_index))
          return false;
      } else if (key == "launches") {
        std::vector<std::vector<std::uint64_t>> tuples;
        // (path, start, wavelength, priority, length)
        if (!read_tuples(value, "launches",
                         {kMaxU32Field, kMaxLaunchStart, kMaxU32Field,
                          kMaxU32Field, kMaxU32Field},
                         tuples))
          return false;
        for (const auto& t : tuples) {
          LaunchSpecLine line;
          line.path = static_cast<std::uint32_t>(t[0]);
          line.start = t[1];
          line.wavelength = static_cast<std::uint32_t>(t[2]);
          line.priority = static_cast<std::uint32_t>(t[3]);
          line.length = static_cast<std::uint32_t>(t[4]);
          if (line.length == 0) return fail("launch lengths must be >= 1");
          spec_.launches.push_back(line);
        }
      } else if (key == "pinned") {
        std::vector<std::vector<std::uint64_t>> tuples;
        if (!read_tuples(value, "pinned", {kMaxU32Field, kMaxU32Field},
                         tuples))
          return false;
        for (const auto& t : tuples)
          spec_.pinned.emplace_back(static_cast<std::uint32_t>(t[0]),
                                    static_cast<std::uint32_t>(t[1]));
      } else {
        return fail("unknown key '" + key + "' in case");
      }
    }
    return true;
  }

  const std::string& file_;
  ScenarioSpec& spec_;
  DslError& error_;
  bool saw_case_ = false;
};

}  // namespace

bool from_scenario_json(const JsonValue& doc, const std::string& file,
                        ScenarioSpec& spec, DslError& error) {
  return JsonLoader(file, spec, error).run(doc);
}

}  // namespace opto::dsl
