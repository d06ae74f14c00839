#include "opto/benchsupport/experiment.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "opto/obs/bench_record.hpp"
#include "opto/obs/obs.hpp"
#include "opto/par/parallel_for.hpp"
#include "opto/rng/splitmix64.hpp"
#include "opto/util/string_util.hpp"

namespace opto {

namespace {

/// One trial's contribution, written into a per-trial slot so the final
/// aggregation can run sequentially in trial order. Merging per-chunk
/// accumulators under a mutex (the old scheme) folded doubles in thread-
/// completion order, which made table means bit-unstable across runs and
/// OPTO_THREADS settings — the determinism CI job diffs these outputs
/// byte-for-byte, so the fold order must be fixed.
struct TrialOutcome {
  bool success = false;
  double rounds = 0.0;
  double charged_time = 0.0;
  double actual_time = 0.0;
  double path_congestion = 0.0;
  double dilation = 0.0;
  double fault_losses = 0.0;
  double contention_losses = 0.0;
  std::uint64_t ack_drops = 0;
  std::uint64_t duplicates = 0;
};

}  // namespace

TrialAggregate run_trials(const CollectionFactory& factory,
                          const ScheduleFactory& schedule_factory,
                          const ProtocolConfig& config, std::size_t trials,
                          std::uint64_t base_seed) {
  const obs::ScopedTimer obs_timer("experiment.run_trials");
  {
    static obs::Counter trial_counter("experiment.trials");
    trial_counter.add(trials);
    obs::annotate("base_seed", std::to_string(base_seed));
  }

  std::vector<TrialOutcome> outcomes(trials);
  parallel_for(0, trials, [&](std::size_t trial) {
    const std::uint64_t seed =
        splitmix64_once(base_seed + 0x9e3779b97f4a7c15ull * (trial + 1));
    const PathCollection collection = factory(seed);
    const auto schedule = schedule_factory(collection);
    TrialAndFailure protocol(collection, config, *schedule);
    const ProtocolResult result = protocol.run(seed ^ 0xabcdef);

    TrialOutcome& outcome = outcomes[trial];
    // Loss accounting covers every trial — failed ones especially, since
    // under fault injection the failures are the interesting signal.
    for (const RoundReport& round : result.rounds) {
      outcome.fault_losses += static_cast<double>(round.fault_losses);
      outcome.contention_losses +=
          static_cast<double>(round.contention_losses);
      outcome.ack_drops += round.ack_drops;
    }
    outcome.success = result.success;
    if (!result.success) return;
    outcome.rounds = static_cast<double>(result.rounds_used);
    outcome.charged_time = static_cast<double>(result.total_charged_time);
    outcome.actual_time = static_cast<double>(result.total_actual_time);
    // C̃ is cached on the collection: when the schedule factory sized
    // the schedule from it, this reads the value rather than recomputing.
    outcome.path_congestion =
        static_cast<double>(collection.path_congestion());
    outcome.dilation = static_cast<double>(collection.dilation());
    outcome.duplicates = result.duplicate_deliveries;
  });

  // Sequential fold in trial order: deterministic in (base_seed, trials)
  // alone, whatever the pool did.
  TrialAggregate aggregate;
  for (const TrialOutcome& outcome : outcomes) {
    aggregate.fault_losses.add(outcome.fault_losses);
    aggregate.contention_losses.add(outcome.contention_losses);
    aggregate.ack_drops += outcome.ack_drops;
    if (!outcome.success) {
      ++aggregate.failures;
      continue;
    }
    aggregate.rounds.add(outcome.rounds);
    aggregate.charged_time.add(outcome.charged_time);
    aggregate.actual_time.add(outcome.actual_time);
    aggregate.path_congestion.add(outcome.path_congestion);
    aggregate.dilation.add(outcome.dilation);
    aggregate.duplicates += outcome.duplicates;
  }
  aggregate.trials = trials;
  return aggregate;
}

ScheduleFactory paper_schedule_factory(std::uint32_t worm_length,
                                       std::uint16_t bandwidth,
                                       PaperSchedule::Constants constants) {
  return [worm_length, bandwidth,
          constants](const PathCollection& collection)
             -> std::unique_ptr<DeltaSchedule> {
    ProblemShape shape;
    shape.size = collection.size();
    shape.dilation = collection.dilation();
    shape.path_congestion = collection.path_congestion();
    shape.worm_length = worm_length;
    shape.bandwidth = bandwidth;
    return std::make_unique<PaperSchedule>(shape, constants);
  };
}

double repro_scale() {
  // Not cached: called rarely, and re-reading keeps the strict validation
  // testable (a garbage value must fail whenever it is consulted).
  const char* env = std::getenv("REPRO_SCALE");
  if (env == nullptr || *env == '\0') return 1.0;
  const auto value = parse_double(env);
  if (!value || !std::isfinite(*value) || *value <= 0.0) {
    // A silent fall-through here used to run benches at a default or
    // near-zero scale — worthless data that looked legitimate. Reject.
    std::fprintf(stderr,
                 "REPRO_SCALE='%s' is not a positive number; "
                 "use e.g. REPRO_SCALE=0.1 or unset it\n",
                 env);
    std::exit(2);
  }
  return std::clamp(*value, 0.05, 100.0);
}

std::size_t scaled_trials(std::size_t base) {
  const double scaled = static_cast<double>(base) * repro_scale();
  return static_cast<std::size_t>(std::max(1.0, scaled + 0.5));
}

void print_experiment_table(const Table& table) {
  table.print(std::cout);
  const char* dir = std::getenv("OPTO_RESULTS_DIR");
  if (dir == nullptr || *dir == '\0') return;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "OPTO_RESULTS_DIR: cannot create '%s': %s\n", dir,
                 ec.message().c_str());
    return;
  }
  const std::string base =
      (std::filesystem::path(dir) / slugify(table.title())).string();
  if (std::ofstream csv(base + ".csv"); csv) table.print_csv(csv);
  if (std::ofstream json(base + ".json"); json) table.print_json(json);
}

void print_experiment_banner(const std::string& id, const std::string& claim) {
  std::printf("\n########################################################\n");
  std::printf("# %s\n# %s\n", id.c_str(), claim.c_str());
  std::printf("# trials scale: REPRO_SCALE=%.2f\n", repro_scale());
  std::printf("########################################################\n");
  // Every bench that prints the standard banner emits a BenchRecord on
  // exit (into OPTO_RESULTS_DIR, when set) — no per-bench wiring.
  obs::annotate("bench", id);
  obs::annotate("repro_scale", Table::format_number(repro_scale()));
  obs::install_bench_record_at_exit(slugify(id));
}

}  // namespace opto
