// Shared helpers for the experiment benches.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>

#include "opto/benchsupport/experiment.hpp"
#include "opto/core/schedule.hpp"
#include "opto/dsl/validate.hpp"
#include "opto/paths/path_collection.hpp"

namespace opto::bench {

inline ProblemShape shape_of(const PathCollection& collection,
                             std::uint32_t worm_length,
                             std::uint16_t bandwidth) {
  ProblemShape shape;
  shape.size = collection.size();
  shape.dilation = collection.dilation();
  shape.path_congestion = collection.path_congestion();
  shape.worm_length = worm_length;
  shape.bandwidth = bandwidth;
  return shape;
}

/// Schedule factory that ignores the collection (fixed Δ every round).
inline ScheduleFactory fixed_schedule_factory(SimTime delta) {
  return [delta](const PathCollection&) {
    return std::unique_ptr<DeltaSchedule>(new FixedSchedule(delta));
  };
}

inline ScheduleFactory no_delay_schedule_factory() {
  return [](const PathCollection&) {
    return std::unique_ptr<DeltaSchedule>(new NoDelaySchedule());
  };
}

/// The committed scenario examples/<stem>.opto: the operating point an
/// anchor bench sweeps around, each cell a copy with the swept fields
/// overridden and built by the dsl/runner.hpp builders. A missing or
/// invalid file ends the bench with exit code 2 and the file's located
/// diagnostic.
inline dsl::ScenarioSpec load_example(const std::string& stem) {
  const std::string path =
      std::string(OPTO_EXAMPLES_DIR) + "/" + stem + ".opto";
  dsl::ScenarioSpec spec;
  dsl::DslError error;
  if (dsl::load_scenario_file(path, spec, error) != dsl::LoadStatus::Ok) {
    std::cerr << error.format() << '\n';
    std::exit(2);
  }
  return spec;
}

}  // namespace opto::bench
