// Experiment harness shared by all bench binaries.
//
// An experiment point builds a (possibly random) path collection per
// trial, runs the Trial-and-Failure protocol, and aggregates rounds /
// charged time / actual time over the trials. Trials run in parallel on
// the global thread pool; every trial is deterministic in (base seed,
// trial index). A trial's collection stats are computed once: C̃ is
// cached on the collection, so the schedule factory's measurement is the
// one the aggregate reports.
//
// Output goes through util::Table so all benches print uniform,
// greppable series. REPRO_SCALE (float env var, default 1) scales trial
// counts; OPTO_THREADS bounds the pool.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "opto/core/trial_and_failure.hpp"
#include "opto/util/stats.hpp"
#include "opto/util/table.hpp"

namespace opto {

/// Builds the collection for one trial. Deterministic in the seed.
using CollectionFactory = std::function<PathCollection(std::uint64_t seed)>;

/// Builds the schedule for a trial's collection (shapes can differ per
/// trial for random workloads).
using ScheduleFactory =
    std::function<std::unique_ptr<DeltaSchedule>(const PathCollection&)>;

struct TrialAggregate {
  SampleSet rounds;          ///< rounds_used per successful trial
  SampleSet charged_time;    ///< Σ (Δ_t + 2(D+L))
  SampleSet actual_time;     ///< Σ per-round makespans
  SampleSet path_congestion; ///< measured C̃ per trial
  SampleSet dilation;
  /// Loss split under fault injection, summed over every round of a trial
  /// (failed trials included — a trial killed by faults still reports its
  /// losses). Zero-fault runs add all-zero samples.
  SampleSet fault_losses;       ///< fault kills + corrupted arrivals
  SampleSet contention_losses;  ///< contention kills + truncated arrivals
  std::uint64_t ack_drops = 0;  ///< acks lost to the fault plan, all trials
  std::uint32_t failures = 0;  ///< trials hitting max_rounds
  std::uint64_t duplicates = 0;
  std::size_t trials = 0;      ///< total trials run (failures included)

  /// Fraction of trials that routed everything within max_rounds.
  double success_rate() const {
    return trials == 0
               ? 0.0
               : 1.0 - static_cast<double>(failures) /
                           static_cast<double>(trials);
  }
};

/// Runs `trials` protocol executions in parallel and aggregates.
TrialAggregate run_trials(const CollectionFactory& factory,
                          const ScheduleFactory& schedule_factory,
                          const ProtocolConfig& config, std::size_t trials,
                          std::uint64_t base_seed);

/// Convenience: paper schedule from measured collection stats.
ScheduleFactory paper_schedule_factory(std::uint32_t worm_length,
                                       std::uint16_t bandwidth,
                                       PaperSchedule::Constants constants = {});

/// REPRO_SCALE env var (default 1.0), clamped to [0.05, 100]. A set but
/// unparseable or non-positive value is a hard error (exit 2): silently
/// running at a default or zero scale produces data that looks real.
double repro_scale();

/// max(1, round(base * repro_scale())).
std::size_t scaled_trials(std::size_t base);

/// Standard experiment header printed by every bench binary. Also
/// registers the bench with the observability layer: on clean exit the
/// process writes a BenchRecord JSON (obs/bench_record.hpp) into
/// OPTO_RESULTS_DIR, keyed by the slug of `id`.
void print_experiment_banner(const std::string& id, const std::string& claim);

/// Prints the table to stdout and — when OPTO_RESULTS_DIR is set —
/// persists it as <dir>/<slug-of-title>.csv and .json for scripting.
void print_experiment_table(const Table& table);

}  // namespace opto
