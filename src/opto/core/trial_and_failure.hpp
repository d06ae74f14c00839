// The Trial-and-Failure protocol (§1.3) — the paper's primary
// contribution, driven on top of the wormhole simulator.
//
//   all n worms are declared active
//   for t = 1 to T:
//     each active worm launches with a random startup delay in [Δ_t]
//     and a random wavelength in [B]
//     every worm that completely reaches its destination sends an
//     acknowledgement back; acknowledged worms turn inactive
//
// Round t is charged Δ_t + 2(D+L) steps (the paper's accounting); the
// simulated makespans are also recorded. Acks run either idealized (the
// paper's one-forward-pass simplification — its analysis covers acks by
// doubling C̃) or fully simulated on the reverse paths in a separate band
// of B wavelengths.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "opto/core/priority_assign.hpp"
#include "opto/core/schedule.hpp"
#include "opto/paths/path_collection.hpp"
#include "opto/sim/simulator.hpp"

namespace opto {

enum class AckMode : std::uint8_t { Ideal, Simulated };

const char* to_string(AckMode mode);

/// Bounded exponential backoff on the startup-delay window Δ_t. After a
/// round that lost worms to *faults* (not contention — the Δ-schedule
/// already handles contention), the next round's window is widened by the
/// cumulative backoff multiplier: retrying into a dark link at the same
/// cadence just re-kills the worm, so spreading the retries out both
/// de-phases them from periodic outages and keeps the re-sent population
/// from re-contending at full density. The multiplier grows by
/// `growth` per faulty round, is capped at `max_backoff`, and relaxes by
/// `decay` after every clean round. With no faults injected the
/// multiplier stays exactly 1.0 and Δ_t is untouched (bit-identical runs).
struct RetryPolicy {
  double growth = 2.0;       ///< multiplier applied after a faulty round
  double decay = 0.5;        ///< relaxation factor after a clean round
  double max_backoff = 16.0; ///< cap on the cumulative multiplier
};

struct ProtocolConfig {
  ContentionRule rule = ContentionRule::ServeFirst;
  TiePolicy tie = TiePolicy::KillAll;
  std::uint16_t bandwidth = 1;      ///< B (message band)
  std::uint32_t worm_length = 1;    ///< L
  std::uint32_t max_rounds = 128;
  AckMode ack_mode = AckMode::Ideal;
  std::uint32_t ack_length = 1;     ///< flits per acknowledgement
  PriorityStrategy priorities = PriorityStrategy::RandomPermutation;
  /// Recompute the active sub-collection's path congestion each round
  /// (validates Lemma 2.4 / Lemma 2.10 decay; costs extra time).
  bool track_congestion = false;
  /// Wavelength-conversion capability of the routers (extension, §4).
  ConversionMode conversion = ConversionMode::None;
  std::vector<char> converters;  ///< per-node flags for Sparse mode
  /// Retain each round's launch set and per-worm outcomes (needed by the
  /// witness-tree builder in opto/analysis; costs memory per round).
  bool keep_round_outcomes = false;
  /// Fault injection (sim/faults.hpp). The plan is derived from the run
  /// seed and re-keyed every round (fault_epoch = round number), so a run
  /// replays bit-identically. Zero rates (the default) inject nothing.
  FaultConfig faults;
  /// Δ_t backoff applied after fault-caused losses; inert without faults.
  RetryPolicy retry;
};

struct RoundReport {
  std::uint32_t round = 0;          ///< 1-based
  SimTime delta = 0;                ///< Δ_t used (backoff already applied)
  std::uint32_t active_before = 0;
  std::uint32_t delivered = 0;      ///< intact deliveries this round
  std::uint32_t acknowledged = 0;   ///< deliveries whose ack returned
  std::uint32_t duplicates = 0;     ///< delivered but ack lost (will retry)
  /// Fault vs contention loss split for this round's forward pass:
  /// fault_losses = fault kills + corrupted arrivals; contention_losses =
  /// contention kills + truncated arrivals.
  std::uint32_t fault_losses = 0;
  std::uint32_t contention_losses = 0;
  std::uint32_t ack_drops = 0;      ///< acks lost to the fault plan
  double backoff = 1.0;             ///< RetryPolicy multiplier in effect
  SimTime charged_time = 0;         ///< Δ_t + 2(D+L)
  SimTime forward_makespan = 0;
  SimTime ack_makespan = 0;
  std::uint32_t active_congestion = 0;  ///< iff track_congestion
  PassMetrics forward;
  /// Populated iff keep_round_outcomes: the worms launched this round (by
  /// path id, parallel to `outcomes`).
  std::vector<PathId> launched;
  std::vector<WormOutcome> outcomes;
};

struct ProtocolResult {
  bool success = false;             ///< all worms acknowledged
  std::uint32_t rounds_used = 0;
  SimTime total_charged_time = 0;   ///< Σ_t (Δ_t + 2(D+L))
  SimTime total_actual_time = 0;    ///< Σ_t observed per-round makespan
  std::uint64_t duplicate_deliveries = 0;
  std::vector<RoundReport> rounds;
  /// Round in which each worm was acknowledged (0 = never).
  std::vector<std::uint32_t> completion_round;
};

/// One live Trial-and-Failure batch, driven round by round by an external
/// event loop. This is the re-entrant core of the protocol: members
/// (path + caller tag) are admitted at any time between rounds, step()
/// executes exactly one round (launch → forward pass → acks → retirement),
/// and acknowledged members surface through completed(). The batch-mode
/// TrialAndFailure::run() below is a thin driver over this class and
/// remains bit-identical to the pre-session implementation; the streaming
/// engine (opto/engine) drives the same session with open arrivals,
/// rolling admissions, held channels (set_held), and a first-fit
/// wavelength chooser.
///
/// Determinism: every draw of round t comes from the counter-based
/// CounterRng(seed, t) (rng/philox.hpp) addressed by (member uid, draw
/// slot), where a member's uid is its admission sequence number. A draw is
/// therefore a pure function of (seed, round, uid) — not of member order,
/// of which other members launch, or of how many draws precede it — so a
/// session's trajectory is a pure function of (seed, admission sequence,
/// chooser decisions, held channels), independent of wall clock, thread
/// count, and whether other sessions run interleaved with it (see
/// TrialAndFailure::run_many and DESIGN.md §9).
class ProtocolSession {
 public:
  /// Per-round wavelength choice override. Called once per member per
  /// round (in member order) instead of the protocol's uniform draw;
  /// returning nullopt skips the member's launch this round — it still
  /// ages (attempts grow) and retries next round. Without a chooser the
  /// session draws uniformly from [B], consuming the RNG stream exactly
  /// as the batch protocol always has.
  using WavelengthChooser =
      std::function<std::optional<Wavelength>(PathId, std::uint64_t tag)>;

  /// An acknowledged (or expired) member. `history_begin/end` index into
  /// wavelength_history() — the wavelength the worm held on each link it
  /// entered; empty without conversion, where `wavelength` holds on every
  /// link of the path.
  struct Completion {
    std::uint64_t tag = 0;
    PathId path = kInvalidPath;
    std::uint32_t attempts = 0;  ///< rounds participated, this one included
    Wavelength wavelength = 0;   ///< launch wavelength
    std::uint32_t history_begin = 0;
    std::uint32_t history_end = 0;
  };

  /// Collection and schedule must outlive the session. `reverse` is an
  /// optional pre-built reverse-path collection for Simulated acks (the
  /// session builds its own when null and the config needs one).
  ProtocolSession(const PathCollection& collection, ProtocolConfig config,
                  DeltaSchedule& schedule, std::uint64_t seed,
                  const PathCollection* reverse = nullptr);

  /// Adds a member to the next round's batch. `tag` is opaque caller
  /// context (the batch driver uses the path id; the engine a connection
  /// id). Members launch in admission order. With the priority rule and
  /// a by-path strategy, admitting one path twice would duplicate ranks —
  /// use RandomPermutation for multi-connection workloads.
  void admit(PathId path, std::uint64_t tag);

  void set_wavelength_chooser(WavelengthChooser chooser) {
    chooser_ = std::move(chooser);
  }

  /// Held channels for the forward passes (Simulator::set_held): a
  /// borrowed link·B + λ mask the passes read in place, so the caller
  /// installs it once and flips channels between steps. Acks are
  /// modelled on a separate band and are not blocked by held message
  /// channels.
  void set_held(std::span<const std::uint8_t> held) {
    forward_sim_.set_held(held);
  }

  /// Executes one protocol round over the current members. The returned
  /// report (valid until the next step) uses the session's global round
  /// number; completed() lists the members acknowledged by this round.
  const RoundReport& step();

  /// Members acknowledged by the latest step(), in member order.
  const std::vector<Completion>& completed() const { return completed_; }

  /// Flattened per-link wavelength histories behind completed()'s
  /// history_begin/end; cleared by the next step().
  std::span<const Wavelength> wavelength_history() const {
    return {completed_history_.data(), completed_history_.size()};
  }

  /// Removes members whose attempts reached `max_attempts` and returns
  /// them (valid until the next expire/remove_if). The batch driver never
  /// expires; the engine uses this as a livelock safety net.
  const std::vector<Completion>& expire(std::uint32_t max_attempts);

  /// Predicate-driven removal: members with `pred(tag, attempts)` true
  /// are removed (order-preserving compaction) and returned, valid until
  /// the next expire/remove_if. The engine's loss-call-cleared admission
  /// drops requests that found every wavelength busy at decision time.
  template <typename Pred>
  const std::vector<Completion>& remove_if(Pred pred);

  std::size_t active_count() const { return active_.size(); }
  std::uint32_t rounds_run() const { return round_; }
  std::uint64_t duplicate_deliveries() const { return duplicates_; }

 private:
  const PathCollection& collection_;
  ProtocolConfig config_;
  DeltaSchedule& schedule_;
  std::uint64_t seed_;
  std::uint32_t dilation_;
  FaultPlan fault_plan_;
  bool faults_on_ = false;
  double backoff_ = 1.0;
  std::uint32_t round_ = 0;
  std::uint64_t duplicates_ = 0;
  WavelengthChooser chooser_;

  std::unique_ptr<PathCollection> owned_reverse_;  ///< iff built here
  Simulator forward_sim_;
  std::optional<Simulator> ack_sim_;

  // Members, parallel vectors compacted in order on retirement/expiry.
  // uids_ carries each member's admission sequence number — the RNG
  // address that survives compaction.
  std::vector<PathId> active_;
  std::vector<std::uint64_t> tags_;
  std::vector<std::uint32_t> attempts_;
  std::vector<std::uint32_t> uids_;
  std::uint32_t next_uid_ = 0;

  // Per-round state, hoisted so a steady-state round allocates nothing.
  RoundReport report_;
  PriorityBuffers priority_;  ///< keys, order, and this round's ranks
  PassResult forward_;
  PassResult ack_pass_;
  std::vector<LaunchSpec> specs_;
  std::vector<std::uint32_t> launcher_;     ///< spec index → member index
  std::vector<std::uint32_t> member_spec_;  ///< member index → spec or none
  std::vector<char> acked_;
  std::vector<LaunchSpec> ack_specs_;
  std::vector<std::size_t> ack_owner_;  ///< ack spec → member index
  std::vector<Completion> completed_;
  std::vector<Wavelength> completed_history_;
  std::vector<Completion> expired_;
};

template <typename Pred>
const std::vector<ProtocolSession::Completion>& ProtocolSession::remove_if(
    Pred pred) {
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

class TrialAndFailure {
 public:
  /// Collection and schedule must outlive the protocol object.
  /// The schedule is mutable: its observe() feedback hook is called after
  /// every round (stateful schedules like AdaptiveSchedule rely on it).
  TrialAndFailure(const PathCollection& collection, ProtocolConfig config,
                  DeltaSchedule& schedule);

  /// Runs the protocol to completion (or max_rounds); deterministic in
  /// `seed`.
  ProtocolResult run(std::uint64_t seed);

  /// Trial-level batching: runs seeds.size() independent trials as one
  /// lockstep mega-pass — every live trial advances one round per sweep,
  /// sweeps fan out over the thread pool. Because every draw is a counter
  /// lookup (no shared RNG state to advance), results[k] is bit-identical
  /// to run(seeds[k]) for every batch shape and OPTO_THREADS value.
  /// Schedules are per-trial (they are stateful via observe()) and must be
  /// fresh — one per seed, parallel to `seeds`; the constructor's schedule
  /// is not used.
  std::vector<ProtocolResult> run_many(
      std::span<const std::uint64_t> seeds,
      std::span<DeltaSchedule* const> schedules);

  const ProtocolConfig& config() const { return config_; }

 private:
  const PathCollection& ensure_reverse_collection();

  const PathCollection& collection_;
  ProtocolConfig config_;
  DeltaSchedule& schedule_;
  std::uint32_t dilation_;
  std::unique_ptr<PathCollection> reverse_collection_;  ///< lazily built
};

}  // namespace opto
