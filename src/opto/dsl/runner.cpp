// DSL front-end of the shared run core: ScenarioSpec → native objects.
//
// Each builder turns one part of a validated spec into the object a
// bench would build by hand (same topology construction, same Rng draw
// order), so the anchor benches build their cells here and a scenario
// file runs exactly what its bench cell runs.
#include "opto/dsl/runner.hpp"

#include <memory>
#include <sstream>
#include <utility>

#include "opto/dsl/run_core.hpp"
#include "opto/graph/bcube.hpp"
#include "opto/graph/butterfly.hpp"
#include "opto/graph/complete.hpp"
#include "opto/graph/fattree.hpp"
#include "opto/graph/hypercube.hpp"
#include "opto/graph/mesh.hpp"
#include "opto/graph/ring.hpp"
#include "opto/paths/bfs_shortest.hpp"
#include "opto/paths/butterfly_paths.hpp"
#include "opto/paths/workloads.hpp"

namespace opto::dsl {

namespace {

/// Request list for the declared workload, drawing from `rng` once
/// (permutation: one random_permutation call; random_function: one
/// random_function call).
std::vector<std::pair<NodeId, NodeId>> workload_requests(
    const std::string& workload, std::uint32_t n, Rng& rng) {
  if (workload == "permutation") {
    const auto perm = random_permutation(n, rng);
    std::vector<std::pair<NodeId, NodeId>> requests;
    for (std::uint32_t i = 0; i < n; ++i) requests.emplace_back(i, perm[i]);
    return requests;
  }
  return function_requests(random_function(n, rng));
}

FaultConfig make_faults(const FaultSpec& spec) {
  FaultConfig config;
  config.link_outage_rate = spec.link_outage_rate;
  config.coupler_outage_rate = spec.coupler_outage_rate;
  config.outage_period = static_cast<SimTime>(spec.outage_period);
  config.outage_duration = static_cast<SimTime>(spec.outage_duration);
  config.stuck_wavelength_rate = spec.stuck_wavelength_rate;
  config.corruption_rate = spec.corruption_rate;
  config.ack_drop_rate = spec.ack_drop_rate;
  return config;
}

}  // namespace

std::shared_ptr<const Graph> build_graph(const TopologySpec& topo) {
  if (topo.family == "butterfly")
    return std::make_shared<Graph>(std::move(make_butterfly(topo.dim).graph));
  if (topo.family == "mesh")
    return std::make_shared<Graph>(
        std::move(make_mesh({topo.side, topo.side}).graph));
  if (topo.family == "ring")
    return std::make_shared<Graph>(make_ring(topo.nodes));
  if (topo.family == "hypercube")
    return std::make_shared<Graph>(make_hypercube(topo.dim));
  if (topo.family == "complete")
    return std::make_shared<Graph>(make_complete(topo.nodes));
  if (topo.family == "single_link")
    return std::make_shared<Graph>(make_graph(2, {{0, 1}}, "single-link"));
  if (topo.family == "fattree")
    return std::make_shared<Graph>(
        std::move(make_fat_tree(topo.radix).graph));
  if (topo.family == "bcube")
    return std::make_shared<Graph>(
        std::move(make_bcube(topo.ports, topo.levels).graph));
  return std::make_shared<Graph>(
      make_graph(topo.nodes, topo.edges, "explicit"));
}

CollectionFactory make_factory(const ScenarioSpec& spec) {
  const TopologySpec topo = spec.topology;
  const PathsSpec paths = spec.paths;

  if (paths.system == "explicit") {
    auto graph = build_graph(topo);
    std::vector<std::vector<NodeId>> routes(paths.routes.begin(),
                                            paths.routes.end());
    return [graph, routes](std::uint64_t) {
      return collection_from_node_lists(graph, routes);
    };
  }
  if (paths.system == "butterfly_io") {
    const std::uint32_t dim = topo.dim;
    const std::string workload = paths.workload;
    return [dim, workload](std::uint64_t seed) {
      auto bf = std::make_shared<ButterflyTopology>(make_butterfly(dim));
      Rng rng(seed);
      const auto requests = workload_requests(workload, bf->rows(), rng);
      return butterfly_io_collection(bf, requests);
    };
  }
  if (paths.system == "mesh_dimension_order") {
    const std::uint32_t side = topo.side;
    const std::string workload = paths.workload;
    return [side, workload](std::uint64_t seed) {
      auto mesh = std::make_shared<MeshTopology>(make_mesh({side, side}));
      Rng rng(seed);
      if (workload == "random_function") return mesh_random_function(mesh, rng);
      const auto requests =
          workload_requests(workload, mesh->graph.node_count(), rng);
      return mesh_collection(mesh, requests);
    };
  }
  // bfs: shortest paths over the plain graph of any family.
  auto graph = build_graph(topo);
  const std::string workload = paths.workload;
  return [graph, workload](std::uint64_t seed) {
    Rng rng(seed);
    return workload == "permutation" ? bfs_random_permutation(graph, rng)
                                     : bfs_random_function(graph, rng);
  };
}

rwa::InstanceFactory make_instance_factory(const ScenarioSpec& spec) {
  auto graph = build_graph(spec.topology);
  const std::string workload = spec.paths.workload;
  return [graph, workload](std::uint64_t seed) {
    Rng rng(seed);
    const auto pairs = workload_requests(
        workload, static_cast<std::uint32_t>(graph->node_count()), rng);
    std::vector<rwa::RwaRequest> requests;
    requests.reserve(pairs.size());
    for (const auto& [source, destination] : pairs)
      requests.push_back(rwa::RwaRequest{source, destination});
    return std::make_pair(graph, std::move(requests));
  };
}

ScheduleFactory make_schedule(const ScenarioSpec& spec) {
  const ScheduleSpec sched = spec.schedule;
  if (sched.kind == "paper") {
    PaperSchedule::Constants constants;
    constants.congestion_factor = sched.congestion_factor;
    constants.log_floor_factor = sched.log_floor_factor;
    return paper_schedule_factory(spec.protocol.worm_length,
                                  static_cast<std::uint16_t>(
                                      spec.protocol.bandwidth),
                                  constants);
  }
  if (sched.kind == "fixed") {
    const SimTime delta = static_cast<SimTime>(sched.delta);
    return [delta](const PathCollection&) {
      return std::make_unique<FixedSchedule>(delta);
    };
  }
  if (sched.kind == "nodelay") {
    return [](const PathCollection&) {
      return std::make_unique<NoDelaySchedule>();
    };
  }
  const SimTime initial = static_cast<SimTime>(sched.initial);
  return [initial](const PathCollection&) {
    return std::make_unique<AdaptiveSchedule>(initial);
  };
}

ProtocolConfig make_protocol(const ScenarioSpec& spec) {
  const ProtocolSpec& proto = spec.protocol;
  ProtocolConfig config;
  config.rule = proto.rule == "priority" ? ContentionRule::Priority
                                         : ContentionRule::ServeFirst;
  config.tie = proto.tie == "first_wins" ? TiePolicy::FirstWins
                                         : TiePolicy::KillAll;
  config.bandwidth = static_cast<std::uint16_t>(proto.bandwidth);
  config.worm_length = proto.worm_length;
  config.max_rounds = proto.max_rounds;
  config.ack_mode =
      proto.ack == "simulated" ? AckMode::Simulated : AckMode::Ideal;
  config.ack_length = proto.ack_length;
  config.conversion = proto.conversion == "full"     ? ConversionMode::Full
                      : proto.conversion == "sparse" ? ConversionMode::Sparse
                                                     : ConversionMode::None;
  config.converters.assign(proto.converters.begin(), proto.converters.end());
  if (spec.faults.declared) config.faults = make_faults(spec.faults);
  return config;
}

rwa::StrategyScheduleConfig make_strategy_config(const ScenarioSpec& spec) {
  rwa::StrategyScheduleConfig config;
  config.rwa.bandwidth = static_cast<std::uint16_t>(spec.protocol.bandwidth);
  config.rwa.candidates = spec.strategy.candidates;
  config.rwa.split_ways = spec.strategy.split_ways;
  config.worm_length = spec.protocol.worm_length;
  config.max_rounds = spec.protocol.max_rounds;
  return config;
}

EngineConfig make_engine_config(const ScenarioSpec& spec) {
  const EngineSpec& eng = spec.engine;
  EngineConfig config;
  config.protocol = make_protocol(spec);
  config.traffic.process = eng.process == "mmpp"    ? ArrivalProcess::Mmpp
                           : eng.process == "trace" ? ArrivalProcess::Trace
                                                    : ArrivalProcess::Poisson;
  config.traffic.rate = eng.rate;
  config.traffic.mmpp_burst = eng.mmpp_burst;
  config.traffic.mmpp_calm = eng.mmpp_calm;
  config.traffic.mmpp_mean_dwell = eng.mmpp_mean_dwell;
  config.traffic.trace = eng.trace;
  config.mean_holding_time = eng.holding_time;
  config.round_interval = eng.round_interval;
  config.round_delta = static_cast<SimTime>(eng.round_delta);
  config.max_setup_rounds = eng.max_setup_rounds;
  config.arrivals = scaled_trials(static_cast<std::size_t>(eng.arrivals));
  config.warmup = config.arrivals / eng.warmup_divisor;
  config.fit = eng.fit == "random_fit" ? WavelengthFit::RandomFit
                                       : WavelengthFit::FirstFit;
  config.record = eng.record;
  return config;
}

testlib::FuzzCase to_fuzz_case(const ScenarioSpec& spec) {
  testlib::FuzzCase fuzz;
  fuzz.seed = spec.case_seed;
  fuzz.index = spec.case_index;
  fuzz.node_count = spec.topology.nodes;
  for (const auto& [u, v] : spec.topology.edges) fuzz.edges.emplace_back(u, v);
  for (const auto& route : spec.paths.routes)
    fuzz.paths.emplace_back(route.begin(), route.end());
  ProtocolConfig protocol = make_protocol(spec);
  fuzz.rule = protocol.rule;
  fuzz.tie = protocol.tie;
  fuzz.bandwidth = protocol.bandwidth;
  fuzz.conversion = protocol.conversion;
  fuzz.converters = std::move(protocol.converters);
  if (spec.faults.declared) {
    fuzz.has_faults = true;
    fuzz.faults = make_faults(spec.faults);
    fuzz.fault_seed = spec.faults.seed;
    fuzz.fault_epoch = spec.faults.epoch;
  }
  for (const auto& [link, wavelength] : spec.pinned)
    fuzz.pinned.push_back(
        PinnedSlot{link, static_cast<Wavelength>(wavelength)});
  for (const LaunchSpecLine& line : spec.launches) {
    LaunchSpec launch;
    launch.path = line.path;
    launch.start_time = static_cast<SimTime>(line.start);
    launch.wavelength = line.wavelength;
    launch.priority = line.priority;
    launch.length = line.length;
    fuzz.specs.push_back(launch);
  }
  return fuzz;
}

ScenarioSpec from_fuzz_case(const testlib::FuzzCase& fuzz) {
  ScenarioSpec spec;
  spec.name = "fuzz seed " + std::to_string(fuzz.seed) + " case " +
              std::to_string(fuzz.index);
  spec.label = "fuzz-seed-" + std::to_string(fuzz.seed) + "-case-" +
               std::to_string(fuzz.index);
  spec.mode = ScenarioMode::Pass;
  spec.case_seed = fuzz.seed;
  spec.case_index = fuzz.index;
  spec.topology.family = "explicit";
  spec.topology.nodes = fuzz.node_count;
  spec.topology.edges.assign(fuzz.edges.begin(), fuzz.edges.end());
  spec.paths.system = "explicit";
  spec.paths.routes.assign(fuzz.paths.begin(), fuzz.paths.end());
  spec.protocol.rule =
      fuzz.rule == ContentionRule::Priority ? "priority" : "serve_first";
  spec.protocol.tie =
      fuzz.tie == TiePolicy::FirstWins ? "first_wins" : "kill_all";
  spec.protocol.bandwidth = fuzz.bandwidth;
  spec.protocol.conversion = fuzz.conversion == ConversionMode::Full ? "full"
                             : fuzz.conversion == ConversionMode::Sparse
                                 ? "sparse"
                                 : "none";
  for (const char flag : fuzz.converters)
    spec.protocol.converters.push_back(flag != 0 ? 1 : 0);
  if (fuzz.has_faults) {
    FaultSpec& faults = spec.faults;
    faults.declared = true;
    faults.link_outage_rate = fuzz.faults.link_outage_rate;
    faults.coupler_outage_rate = fuzz.faults.coupler_outage_rate;
    faults.outage_period =
        static_cast<std::uint64_t>(fuzz.faults.outage_period);
    faults.outage_duration =
        static_cast<std::uint64_t>(fuzz.faults.outage_duration);
    faults.stuck_wavelength_rate = fuzz.faults.stuck_wavelength_rate;
    faults.corruption_rate = fuzz.faults.corruption_rate;
    faults.ack_drop_rate = fuzz.faults.ack_drop_rate;
    faults.seed = fuzz.fault_seed;
    faults.epoch = fuzz.fault_epoch;
  }
  for (const PinnedSlot& slot : fuzz.pinned)
    spec.pinned.emplace_back(slot.link, slot.wavelength);
  for (const LaunchSpec& launch : fuzz.specs) {
    LaunchSpecLine line;
    line.path = launch.path;
    line.start = static_cast<std::uint64_t>(launch.start_time);
    line.wavelength = launch.wavelength;
    line.priority = launch.priority;
    line.length = launch.length;
    spec.launches.push_back(line);
  }
  return spec;
}

bool run_scenario(const ScenarioSpec& spec, JsonValue& result,
                  std::string& error) {
  if (spec.mode == ScenarioMode::Pass) {
    const testlib::FuzzCase fuzz = to_fuzz_case(spec);
    if (!testlib::well_formed(fuzz, &error)) return false;
    result = detail::run_pass(fuzz, spec.label);
    return true;
  }
  if (spec.mode == ScenarioMode::Engine) {
    result = detail::run_engine(build_graph(spec.topology),
                                make_engine_config(spec), spec.seed,
                                spec.label);
    return true;
  }
  if (spec.strategy.declared) {
    const auto kind = rwa::parse_strategy_kind(spec.strategy.kind);
    if (!kind) {
      error = "unknown strategy kind '" + spec.strategy.kind + "'";
      return false;
    }
    result = detail::run_strategy_closed(
        make_instance_factory(spec), *kind, make_strategy_config(spec),
        static_cast<std::size_t>(spec.trials), spec.seed, spec.label);
    return true;
  }
  result = detail::run_closed(make_factory(spec), make_schedule(spec),
                              make_protocol(spec),
                              static_cast<std::size_t>(spec.trials),
                              spec.seed, spec.label);
  return true;
}

std::string result_text(const JsonValue& result) {
  std::ostringstream os;
  write_json(os, result, /*sorted_keys=*/true);
  os << '\n';
  return os.str();
}

}  // namespace opto::dsl
