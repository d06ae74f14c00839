#include "opto/dsl/canonical.hpp"

#include <algorithm>
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

// ---- JSON → AST lowering ---------------------------------------------------

namespace {

/// The tag key of each variant-tagged section: `"topology": {"family":
/// "ring", …}` lowers to `topology ring { … }`.
const char* variant_key(const std::string& keyword) {
  if (keyword == "topology") return "family";
  if (keyword == "paths") return "system";
  if (keyword == "strategy" || keyword == "schedule") return "kind";
  return nullptr;
}

bool is_decimal(const std::string& text) {
  return !text.empty() &&
         text.find_first_not_of("0123456789") == std::string::npos;
}

/// Keeps only the JSON envelope (schema, schema_version, name); every
/// other member becomes the setting or section the .opto spelling of the
/// scenario would have, so validate() is the one rule book for both
/// forms. Every node carries location 1:1.
class Lowering {
 public:
  Lowering(const std::string& file, ScenarioAst& ast, DslError& error)
      : file_(file), ast_(ast), error_(error) {}

  bool run(const JsonValue& doc) {
    ast_ = ScenarioAst{};
    ast_.file = file_;
    if (!doc.is_object()) return fail("the document is not a JSON object");
    if (doc.string_at("schema") != kScenarioSchema)
      return fail("expected schema \"" + std::string(kScenarioSchema) +
                  "\", got \"" + doc.string_at("schema") + "\"");
    if (doc.number_at("schema_version") != kScenarioSchemaVersion)
      return fail("unsupported schema_version");
    const JsonValue* name = doc.find("name");
    if (name == nullptr) return fail("missing required key 'name'");
    if (!name->is_string()) return fail("'name' must be a string");
    ast_.name = name->text;
    // A duplicate setting reaches the validator, which rejects it as in
    // .opto. Duplicate sections are the .opto parser's rule, so the
    // lowering enforces it here, and for the envelope keys.
    std::vector<std::string> seen;
    for (const auto& [key, value] : doc.members) {
      const bool envelope =
          key == "schema" || key == "schema_version" || key == "name";
      if (envelope || value.is_object()) {
        if (std::find(seen.begin(), seen.end(), key) != seen.end())
          return fail("duplicate key '" + key + "'");
        seen.push_back(key);
      }
      if (envelope) continue;
      if (value.is_object()) {
        if (!section(key, value)) return false;
      } else if (!setting(key, value, key, ast_.settings)) {
        return false;
      }
    }
    return true;
  }

 private:
  bool fail(std::string message) {
    error_ = DslError{file_, SourceLoc{}, std::move(message)};
    return false;
  }

  bool section(const std::string& keyword, const JsonValue& object) {
    Section out;
    out.keyword = keyword;
    const char* tag = variant_key(keyword);
    bool tagged = false;
    for (const auto& [key, value] : object.members) {
      const std::string path = keyword + "." + key;
      if (tag != nullptr && key == tag && value.is_string()) {
        if (tagged) return fail("duplicate key '" + path + "'");
        tagged = true;
        out.variant = value.text;
      } else if (!setting(key, value, path, out.settings)) {
        return false;
      }
    }
    ast_.sections.push_back(std::move(out));
    return true;
  }

  bool setting(const std::string& key, const JsonValue& json,
               const std::string& path, std::vector<Setting>& out) {
    Setting s;
    s.key = key;
    if (!value(json, path, s.value)) return false;
    // The writer's string-typed keys: the label is a string, and 64-bit
    // seeds and the fault epoch are decimal strings.
    if (json.is_string() && key == "label") s.value.kind = Value::Kind::String;
    if (json.is_string() && (key == "seed" || key == "epoch"))
      s.value.kind = is_decimal(json.text) ? Value::Kind::Number
                                           : Value::Kind::String;
    out.push_back(std::move(s));
    return true;
  }

  bool value(const JsonValue& json, const std::string& path, Value& out) {
    switch (json.kind) {
      case JsonValue::Kind::Null:
        return fail("unexpected null in setting '" + path + "'");
      case JsonValue::Kind::Object:
        return fail("unexpected object in setting '" + path + "'");
      case JsonValue::Kind::Bool:
        out.kind = Value::Kind::Ident;
        out.text = json.boolean ? "true" : "false";
        return true;
      case JsonValue::Kind::Number:
        out.kind = Value::Kind::Number;
        out.text = json.text;
        return true;
      case JsonValue::Kind::String:
        out.kind = Value::Kind::Ident;
        out.text = json.text;
        return true;
      case JsonValue::Kind::Array:
        out.kind = Value::Kind::List;
        out.items.resize(json.items.size());
        for (std::size_t i = 0; i < json.items.size(); ++i)
          if (!value(json.items[i], path, out.items[i])) return false;
        return true;
    }
    return false;
  }

  const std::string& file_;
  ScenarioAst& ast_;
  DslError& error_;
};

}  // namespace

bool from_scenario_json(const JsonValue& doc, const std::string& file,
                        ScenarioSpec& spec, DslError& error) {
  ScenarioAst ast;
  if (!Lowering(file, ast, error).run(doc)) return false;
  return validate(ast, spec, error);
}

}  // namespace opto::dsl
