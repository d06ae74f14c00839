// ScenarioSpec — the validated, fully-typed form of one `.opto` scenario.
//
// Every field is materialized (defaults filled in), so a spec has exactly
// one canonical JSON serialization (canonical.hpp, schema
// "opto.scenario/1") and parse → dump → parse is a byte-exact fixed
// point. Three scenario modes cover the repo's workloads:
//
//   trials — closed experiment: build a (possibly random) PathCollection
//            per trial, run Trial-and-Failure to completion, aggregate
//            over `trials` runs (benchsupport/experiment.hpp).
//   engine — streaming traffic: open arrivals over rolling protocol
//            batches (engine/engine.hpp).
//   pass   — one raw simulator pass over an explicit topology, path list,
//            and launch schedule; interconvertible with the fuzzer's
//            in-memory FuzzCase (runner.hpp to_fuzz_case /
//            from_fuzz_case). It is the only on-disk form of a fuzz
//            case: opto_fuzz writes and replays pass scenarios, and the
//            distilled anchors live in examples/repros/*.opto.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "opto/core/trial_and_failure.hpp"
#include "opto/engine/engine.hpp"

namespace opto::dsl {

enum class ScenarioMode : std::uint8_t { Trials, Engine, Pass };

const char* to_string(ScenarioMode mode);

/// Topology family + parameters. Exactly the fields of the declared
/// family are meaningful; the rest stay at their defaults.
struct TopologySpec {
  std::string family;  ///< butterfly | mesh | ring | hypercube | complete |
                       ///< single_link | fattree | bcube | explicit
  std::uint32_t dim = 0;    ///< butterfly, hypercube
  std::uint32_t side = 0;   ///< mesh (square)
  std::uint32_t nodes = 0;  ///< ring, complete, explicit
  std::uint32_t radix = 0;  ///< fattree (even k)
  std::uint32_t ports = 0;  ///< bcube (n)
  std::uint32_t levels = 0;  ///< bcube
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;  ///< explicit
};

/// Path-system generator (trials mode) or explicit routes (pass mode).
struct PathsSpec {
  std::string system;    ///< butterfly_io | mesh_dimension_order | bfs |
                         ///< explicit
  std::string workload;  ///< permutation | random_function ('' for explicit)
  std::vector<std::vector<std::uint32_t>> routes;  ///< explicit node lists
};

/// Protocol knobs (core/trial_and_failure.hpp ProtocolConfig subset).
struct ProtocolSpec {
  std::string rule = "serve_first";   ///< serve_first | priority
  std::string tie = "kill_all";       ///< kill_all | first_wins
  std::uint32_t bandwidth = 1;
  std::uint32_t worm_length = 1;
  std::uint32_t max_rounds = 128;
  std::string ack = "ideal";          ///< ideal | simulated
  std::uint32_t ack_length = 1;
  std::string conversion = "none";    ///< none | full | sparse
  std::vector<std::uint32_t> converters;  ///< 0/1 per node, sparse only
};

/// RWA strategy block (trials mode): replaces the Trial-and-Failure
/// protocol with a static strategy round driver (rwa/schedule.hpp).
/// Bandwidth, worm length, and round cap come from the protocol block.
struct StrategySpec {
  bool declared = false;  ///< a `strategy <kind> { … }` section was present
  std::string kind;       ///< first_fit | least_used | random_fit |
                          ///< multipath | valiant
  std::uint32_t candidates = 3;  ///< k candidate routes per request
  std::uint32_t split_ways = 2;  ///< multipath stripe width
};

/// Δ-schedule for the trials mode.
struct ScheduleSpec {
  std::string kind = "paper";  ///< paper | fixed | nodelay | adaptive
  double congestion_factor = 4.0;  ///< paper
  double log_floor_factor = 2.0;   ///< paper
  std::uint64_t delta = 8;         ///< fixed
  std::uint64_t initial = 8;       ///< adaptive
};

/// Fault plan (sim/faults.hpp FaultConfig + pass-mode keying).
struct FaultSpec {
  bool declared = false;  ///< a `faults { … }` section was present
  double link_outage_rate = 0.0;
  double coupler_outage_rate = 0.0;
  std::uint64_t outage_period = 64;
  std::uint64_t outage_duration = 16;
  double stuck_wavelength_rate = 0.0;
  double corruption_rate = 0.0;
  double ack_drop_rate = 0.0;
  std::uint64_t seed = 0;   ///< pass mode: FaultPlan base seed
  std::uint64_t epoch = 0;  ///< pass mode: FaultPlan epoch
};

/// Streaming-engine knobs (engine/engine.hpp EngineConfig subset).
struct EngineSpec {
  std::string process = "poisson";  ///< poisson | mmpp | trace
  double rate = 1.0;
  double mmpp_burst = 4.0;
  double mmpp_calm = 0.25;
  double mmpp_mean_dwell = 16.0;
  std::vector<double> trace;        ///< inter-arrival gaps, trace process
  double holding_time = 1.0;
  double round_interval = 0.05;
  std::uint64_t round_delta = 8;
  std::uint32_t max_setup_rounds = 32;
  std::uint64_t arrivals = 100000;  ///< base count, scaled by REPRO_SCALE
  std::uint32_t warmup_divisor = 10;  ///< warmup = arrivals / divisor
  std::string fit = "first_fit";    ///< first_fit | random_fit
  bool record = true;  ///< publish result gauges into the BenchRecord
};

/// One pass-mode launch: (path, start, wavelength, priority, length) —
/// the order the `launches [[…]]` lists use.
struct LaunchSpecLine {
  std::uint32_t path = 0;
  std::uint64_t start = 0;
  std::uint32_t wavelength = 0;
  std::uint32_t priority = 0;
  std::uint32_t length = 1;
};

struct ScenarioSpec {
  std::string name;
  ScenarioMode mode = ScenarioMode::Trials;
  std::uint64_t seed = 1;
  std::string label;        ///< BenchRecord label (default: slug of name)
  std::uint64_t trials = 1; ///< trials mode: base count, REPRO_SCALE applies

  TopologySpec topology;
  PathsSpec paths;
  ProtocolSpec protocol;
  StrategySpec strategy;
  ScheduleSpec schedule;
  FaultSpec faults;
  EngineSpec engine;

  // Pass mode extras.
  std::uint64_t case_seed = 0;   ///< FuzzCase provenance
  std::uint64_t case_index = 0;
  std::vector<LaunchSpecLine> launches;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pinned;  ///< (link, λ)
};

}  // namespace opto::dsl
