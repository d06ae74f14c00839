#include "opto/core/trial_and_failure.hpp"

#include <algorithm>
#include <cmath>

#include "opto/obs/obs.hpp"
#include "opto/par/parallel_for.hpp"
#include "opto/util/assert.hpp"

namespace opto {

const char* to_string(AckMode mode) {
  return mode == AckMode::Ideal ? "ideal" : "simulated";
}

namespace {

/// Member-with-no-spec sentinel: the wavelength chooser sat this member
/// out for the round, so it has no slot in the pass results.
constexpr std::uint32_t kNoSpec = ~std::uint32_t{0};

SimConfig protocol_sim_config(const ProtocolConfig& config,
                              const FaultPlan* plan) {
  SimConfig sim;
  sim.rule = config.rule;
  sim.tie = config.tie;
  sim.bandwidth = config.bandwidth;
  sim.conversion = config.conversion;
  sim.converters = config.converters;
  sim.faults = plan;
  return sim;
}

/// Protocol-level obs: run/round totals and the fault-vs-contention loss
/// split, recorded once per run (see obs/bench_record.hpp for how these
/// surface in the BenchRecord metrics).
struct ProtocolObsCounters {
  obs::Counter runs{"protocol.runs"};
  obs::Counter failures{"protocol.failures"};
  obs::Counter rounds{"protocol.rounds"};
  obs::Counter fault_losses{"protocol.fault_losses"};
  obs::Counter contention_losses{"protocol.contention_losses"};
  obs::Counter ack_drops{"protocol.ack_drops"};
  obs::Counter duplicates{"protocol.duplicates"};
};

void record_run_observation(const ProtocolResult& result) {
  static ProtocolObsCounters counters;
  counters.runs.add(1);
  if (!result.success) counters.failures.add(1);
  counters.rounds.add(result.rounds_used);
  std::uint64_t fault_losses = 0;
  std::uint64_t contention_losses = 0;
  std::uint64_t ack_drops = 0;
  for (const RoundReport& round : result.rounds) {
    fault_losses += round.fault_losses;
    contention_losses += round.contention_losses;
    ack_drops += round.ack_drops;
  }
  counters.fault_losses.add(fault_losses);
  counters.contention_losses.add(contention_losses);
  counters.ack_drops.add(ack_drops);
  counters.duplicates.add(result.duplicate_deliveries);
}

/// Folds one round of a closed batch into its trial result — the shared
/// accounting of run() and run_many().
void fold_round(ProtocolResult& result, const ProtocolSession& session,
                const RoundReport& report) {
  for (const ProtocolSession::Completion& done : session.completed())
    result.completion_round[done.tag] = report.round;
  result.total_charged_time += report.charged_time;
  result.total_actual_time +=
      std::max(report.forward_makespan, report.ack_makespan) + 1;
  result.rounds.push_back(report);
  result.rounds_used = report.round;
}

}  // namespace

// --- ProtocolSession ----------------------------------------------------

ProtocolSession::ProtocolSession(const PathCollection& collection,
                                 ProtocolConfig config,
                                 DeltaSchedule& schedule, std::uint64_t seed,
                                 const PathCollection* reverse)
    : collection_(collection),
      config_(std::move(config)),
      schedule_(schedule),
      seed_(seed),
      dilation_(collection.dilation()),
      // The fault plan is keyed by the session seed and re-keyed each
      // round (fault_epoch = round), so fault decisions replay bit-
      // identically and never consume from the protocol's RNG streams.
      // Both simulators share the plan: acks route through the same
      // faulted network.
      fault_plan_(config_.faults, seed),
      forward_sim_(collection, protocol_sim_config(config_, &fault_plan_)) {
  OPTO_ASSERT(config_.bandwidth >= 1);
  OPTO_ASSERT(config_.worm_length >= 1);
  OPTO_ASSERT_MSG(config_.retry.growth >= 1.0 &&
                      config_.retry.max_backoff >= 1.0 &&
                      config_.retry.decay > 0.0 && config_.retry.decay <= 1.0,
                  "RetryPolicy: growth/max_backoff >= 1, decay in (0, 1]");
  faults_on_ = fault_plan_.enabled();
  if (config_.ack_mode == AckMode::Simulated) {
    if (reverse == nullptr) {
      owned_reverse_ = std::make_unique<PathCollection>(collection.reversed());
      reverse = owned_reverse_.get();
    }
    ack_sim_.emplace(*reverse, protocol_sim_config(config_, &fault_plan_));
  }
}

void ProtocolSession::admit(PathId path, std::uint64_t tag) {
  OPTO_ASSERT(path < collection_.size());
  active_.push_back(path);
  tags_.push_back(tag);
  attempts_.push_back(0);
  uids_.push_back(next_uid_++);
}

const RoundReport& ProtocolSession::step() {
  const std::uint32_t round = ++round_;
  // Counter-based draws: everything this round needs is addressed by
  // (member uid, slot) under the (seed, round) key — see the class
  // determinism comment. No draw depends on any other draw.
  const CounterRng rng(seed_, round);
  fault_plan_.set_epoch(round);
  SimTime delta = schedule_.delta(round);
  OPTO_ASSERT(delta >= 1);
  // Widen the startup-delay window by the fault backoff. backoff == 1.0
  // exactly when no fault loss has occurred, keeping Δ_t bit-identical
  // to the fault-free run.
  if (backoff_ > 1.0)
    delta = static_cast<SimTime>(
        std::llround(static_cast<double>(delta) * backoff_));

  report_ = RoundReport{};
  report_.round = round;
  report_.delta = delta;
  report_.backoff = backoff_;
  report_.active_before = static_cast<std::uint32_t>(active_.size());
  report_.charged_time =
      delta + 2 * static_cast<SimTime>(dilation_ + config_.worm_length);
  // Path congestion of the active subset (Lemma 2.4 / 2.10 tracking).
  if (config_.track_congestion)
    report_.active_congestion = collection_.path_congestion_of(active_);

  const std::span<const std::uint32_t> ranks = assign_priorities(
      config_.priorities, active_,
      static_cast<std::uint32_t>(collection_.size()), rng, uids_, priority_);

  // Launch every member with a fresh random delay; the wavelength comes
  // from the chooser when one is installed (nullopt = sit this round
  // out), else from the protocol's uniform draw.
  specs_.clear();
  launcher_.clear();
  member_spec_.assign(active_.size(), kNoSpec);
  for (std::size_t i = 0; i < active_.size(); ++i) {
    const auto start = static_cast<SimTime>(
        rng.below(static_cast<std::uint64_t>(delta), uids_[i],
                  CounterRng::kSlotStartDelay));
    std::optional<Wavelength> wavelength;
    if (chooser_)
      wavelength = chooser_(active_[i], tags_[i]);
    else
      wavelength = static_cast<Wavelength>(
          rng.below(config_.bandwidth, uids_[i],
                    CounterRng::kSlotWavelength));
    ++attempts_[i];
    if (!wavelength.has_value()) continue;
    LaunchSpec spec;
    spec.path = active_[i];
    spec.start_time = start;
    spec.wavelength = *wavelength;
    spec.priority = ranks[i];
    spec.length = config_.worm_length;
    member_spec_[i] = static_cast<std::uint32_t>(specs_.size());
    launcher_.push_back(static_cast<std::uint32_t>(i));
    specs_.push_back(spec);
  }

  forward_sim_.run(specs_, forward_);
  report_.forward = forward_.metrics;
  report_.forward_makespan = forward_.metrics.makespan;
  report_.fault_losses = static_cast<std::uint32_t>(
      forward_.metrics.fault_kills + forward_.metrics.corrupted_arrivals);
  // Pinned blocks (held channels) count as contention for reporting —
  // the channel is busy, not broken — and never feed the fault backoff.
  report_.contention_losses = static_cast<std::uint32_t>(
      forward_.metrics.killed + forward_.metrics.pinned_blocks +
      forward_.metrics.truncated_arrivals);
  if (config_.keep_round_outcomes) {
    report_.launched.reserve(specs_.size());
    for (const LaunchSpec& spec : specs_)
      report_.launched.push_back(spec.path);
    report_.outcomes = forward_.worms;
  }

  // Determine which deliveries get acknowledged.
  // A lossy ack channel (fault plan) can swallow the acknowledgement of
  // a successful delivery in either mode: the sender re-sends next
  // round (a duplicate delivery), exactly like a lost simulated ack.
  const auto ack_dropped = [&](std::size_t member) {
    if (!faults_on_ || !fault_plan_.drops_ack(active_[member])) return false;
    ++report_.ack_drops;
    return true;
  };
  acked_.assign(active_.size(), 0);
  if (config_.ack_mode == AckMode::Ideal) {
    for (std::size_t j = 0; j < specs_.size(); ++j) {
      const std::size_t member = launcher_[j];
      acked_[member] =
          forward_.worms[j].delivered_intact() && !ack_dropped(member) ? 1
                                                                       : 0;
    }
  } else {
    // Simulated acks: 1..ack_length flits back along the reverse path in
    // a separate band of B wavelengths, launched right after delivery.
    ack_specs_.clear();
    ack_owner_.clear();
    for (std::size_t j = 0; j < specs_.size(); ++j) {
      if (!forward_.worms[j].delivered_intact()) continue;
      const std::size_t member = launcher_[j];
      LaunchSpec spec;
      spec.path = active_[member];
      spec.start_time = forward_.worms[j].finish_time + 1;
      spec.wavelength = static_cast<Wavelength>(
          rng.below(config_.bandwidth, uids_[member],
                    CounterRng::kSlotAckWavelength));
      spec.priority = ranks[member];
      spec.length = config_.ack_length;
      ack_specs_.push_back(spec);
      ack_owner_.push_back(member);
    }
    ack_sim_->run(ack_specs_, ack_pass_);
    report_.ack_makespan = ack_pass_.metrics.makespan;
    for (std::size_t j = 0; j < ack_specs_.size(); ++j)
      if (ack_pass_.worms[j].delivered_intact() &&
          !ack_dropped(ack_owner_[j]))
        acked_[ack_owner_[j]] = 1;
  }

  // Bookkeeping + retirement of acknowledged members (order-preserving
  // compaction, recycling the previous round's buffers).
  completed_.clear();
  completed_history_.clear();
  still_active_.clear();
  still_tags_.clear();
  still_attempts_.clear();
  still_uids_.clear();
  still_active_.reserve(active_.size());
  still_tags_.reserve(active_.size());
  still_attempts_.reserve(active_.size());
  still_uids_.reserve(active_.size());
  for (std::size_t i = 0; i < active_.size(); ++i) {
    const std::uint32_t j = member_spec_[i];
    const bool delivered =
        j != kNoSpec && forward_.worms[j].delivered_intact();
    if (delivered) ++report_.delivered;
    if (acked_[i] != 0) {
      ++report_.acknowledged;
      Completion done;
      done.tag = tags_[i];
      done.path = active_[i];
      done.attempts = attempts_[i];
      done.wavelength = specs_[j].wavelength;
      if (!forward_.wavelength_offsets.empty()) {
        done.history_begin =
            static_cast<std::uint32_t>(completed_history_.size());
        completed_history_.insert(
            completed_history_.end(),
            forward_.wavelengths.begin() + forward_.wavelength_offsets[j],
            forward_.wavelengths.begin() +
                forward_.wavelength_offsets[j + 1]);
        done.history_end =
            static_cast<std::uint32_t>(completed_history_.size());
      }
      completed_.push_back(done);
    } else {
      if (delivered) ++report_.duplicates;  // re-sent next round
      still_active_.push_back(active_[i]);
      still_tags_.push_back(tags_[i]);
      still_attempts_.push_back(attempts_[i]);
      still_uids_.push_back(uids_[i]);
    }
  }
  duplicates_ += report_.duplicates;
  std::swap(active_, still_active_);
  std::swap(tags_, still_tags_);
  std::swap(attempts_, still_attempts_);
  std::swap(uids_, still_uids_);

  schedule_.observe(report_.active_before, report_.acknowledged);
  // RetryPolicy: widen the next window after fault-caused losses (lost
  // acks included — the sender cannot tell them apart), relax toward
  // the schedule's Δ_t after clean rounds.
  if (report_.fault_losses > 0 || report_.ack_drops > 0)
    backoff_ =
        std::min(backoff_ * config_.retry.growth, config_.retry.max_backoff);
  else
    backoff_ = std::max(1.0, backoff_ * config_.retry.decay);
  return report_;
}

const std::vector<ProtocolSession::Completion>& ProtocolSession::expire(
    std::uint32_t max_attempts) {
  return remove_if([max_attempts](std::uint64_t, std::uint32_t attempts) {
    return attempts >= max_attempts;
  });
}

const std::vector<ProtocolSession::Completion>& ProtocolSession::remove_if(
    const RemovePredicate& pred) {
  expired_.clear();
  std::size_t keep = 0;
  for (std::size_t i = 0; i < active_.size(); ++i) {
    if (pred(tags_[i], attempts_[i])) {
      Completion gone;
      gone.tag = tags_[i];
      gone.path = active_[i];
      gone.attempts = attempts_[i];
      expired_.push_back(gone);
      continue;
    }
    active_[keep] = active_[i];
    tags_[keep] = tags_[i];
    attempts_[keep] = attempts_[i];
    uids_[keep] = uids_[i];
    ++keep;
  }
  active_.resize(keep);
  tags_.resize(keep);
  attempts_.resize(keep);
  uids_.resize(keep);
  return expired_;
}

// --- TrialAndFailure ----------------------------------------------------

TrialAndFailure::TrialAndFailure(const PathCollection& collection,
                                 ProtocolConfig config,
                                 DeltaSchedule& schedule)
    : collection_(collection),
      config_(config),
      schedule_(schedule),
      dilation_(collection.dilation()) {
  OPTO_ASSERT(config_.bandwidth >= 1);
  OPTO_ASSERT(config_.worm_length >= 1);
  OPTO_ASSERT(config_.max_rounds >= 1);
  OPTO_ASSERT_MSG(config_.retry.growth >= 1.0 &&
                      config_.retry.max_backoff >= 1.0 &&
                      config_.retry.decay > 0.0 && config_.retry.decay <= 1.0,
                  "RetryPolicy: growth/max_backoff >= 1, decay in (0, 1]");
}

const PathCollection& TrialAndFailure::ensure_reverse_collection() {
  if (reverse_collection_ == nullptr) {
    reverse_collection_ =
        std::make_unique<PathCollection>(collection_.reversed());
  }
  return *reverse_collection_;
}

ProtocolResult TrialAndFailure::run(std::uint64_t seed) {
  const obs::ScopedTimer obs_timer("protocol.run");
  ProtocolResult result;
  result.completion_round.assign(collection_.size(), 0);

  // One closed batch: every path is a member up front, tagged by its own
  // id, and rounds run until all are acknowledged or the budget is spent.
  // The session keeps the round trajectory bit-identical to the original
  // monolithic loop (same per-round RNG streams, same draw order).
  const PathCollection* reverse = config_.ack_mode == AckMode::Simulated
                                      ? &ensure_reverse_collection()
                                      : nullptr;
  ProtocolSession session(collection_, config_, schedule_, seed, reverse);
  const auto count = static_cast<PathId>(collection_.size());
  for (PathId id = 0; id < count; ++id) session.admit(id, id);

  while (session.active_count() > 0 &&
         session.rounds_run() < config_.max_rounds) {
    const RoundReport& report = session.step();
    fold_round(result, session, report);
  }
  result.duplicate_deliveries = session.duplicate_deliveries();
  result.success = session.active_count() == 0;
  if (obs::enabled()) record_run_observation(result);
  return result;
}

std::vector<ProtocolResult> TrialAndFailure::run_many(
    std::span<const std::uint64_t> seeds,
    std::span<DeltaSchedule* const> schedules) {
  OPTO_ASSERT_MSG(seeds.size() == schedules.size(),
                  "run_many: one schedule per seed");
  const obs::ScopedTimer obs_timer("protocol.run_many");
  const std::size_t trials = seeds.size();
  std::vector<ProtocolResult> results(trials);
  if (trials == 0) return results;

  const PathCollection* reverse = config_.ack_mode == AckMode::Simulated
                                      ? &ensure_reverse_collection()
                                      : nullptr;
  // One closed batch per trial, all admitted up front — the same setup
  // run() performs, so trial k is bit-identical to run(seeds[k]).
  std::vector<std::unique_ptr<ProtocolSession>> sessions;
  sessions.reserve(trials);
  const auto count = static_cast<PathId>(collection_.size());
  for (std::size_t k = 0; k < trials; ++k) {
    OPTO_ASSERT(schedules[k] != nullptr);
    sessions.push_back(std::make_unique<ProtocolSession>(
        collection_, config_, *schedules[k], seeds[k], reverse));
    for (PathId id = 0; id < count; ++id) sessions[k]->admit(id, id);
    results[k].completion_round.assign(collection_.size(), 0);
  }

  // The mega-pass: every live trial advances one round per sweep, fanned
  // out over the pool. Each lane touches only its own session, schedule,
  // and result slot; counter-based draws mean no RNG state is shared, so
  // the interleaving (and OPTO_THREADS) cannot leak between trials.
  bool any_live = true;
  while (any_live) {
    parallel_for(0, trials, [&](std::size_t k) {
      ProtocolSession& session = *sessions[k];
      if (session.active_count() == 0 ||
          session.rounds_run() >= config_.max_rounds)
        return;
      const RoundReport& report = session.step();
      fold_round(results[k], session, report);
    });
    any_live = false;
    for (std::size_t k = 0; k < trials; ++k)
      if (sessions[k]->active_count() > 0 &&
          sessions[k]->rounds_run() < config_.max_rounds)
        any_live = true;
  }
  for (std::size_t k = 0; k < trials; ++k) {
    results[k].duplicate_deliveries = sessions[k]->duplicate_deliveries();
    results[k].success = sessions[k]->active_count() == 0;
    if (obs::enabled()) record_run_observation(results[k]);
  }
  return results;
}

}  // namespace opto
