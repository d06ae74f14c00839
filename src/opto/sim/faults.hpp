// Deterministic fault injection for the wormhole engine.
//
// The Trial-and-Failure protocol is retry-based — a worm eliminated at a
// coupler is simply re-launched next round — which makes it a natural
// testbed for the physical faults the paper abstracts away: dark fibers
// (link outages), stuck wavelengths, failed couplers, flit corruption,
// and lossy acknowledgement channels.
//
// Every fault decision is derived *counter-style*: a query hashes
// (base_seed, fault_epoch, fault-kind, entity ids) through splitmix64 and
// compares the result against the configured rate. Consequences:
//  * queries are pure functions — no internal RNG stream is advanced, so
//    query order (and the engine's control flow) can never perturb the
//    fault pattern, and concurrent readers need no synchronization;
//  * a trial replays bit-identically from (base_seed, fault_epoch) alone;
//  * a zero-rate plan answers every query `false` without hashing, so a
//    zero-fault FaultPlan is behaviourally identical to no plan at all
//    (test_faults.cpp checks this differentially, bit for bit).
//
// The protocol bumps the epoch once per round, so outage schedules, stuck
// sets, and corruption streams resample across rounds — a worm unlucky in
// round t is not doomed in round t+1 (faults model transient hardware
// conditions, not a permanently altered topology).
#pragma once

#include <cstdint>

#include "opto/graph/graph.hpp"
#include "opto/optical/worm.hpp"

namespace opto {

/// Fault rates and outage shapes. All rates are probabilities in [0, 1];
/// a default-constructed config injects nothing.
struct FaultConfig {
  /// Fraction of links carrying a periodic down/repair schedule this
  /// epoch. A worm entering a down link is eliminated like a serve-first
  /// loss (its upstream flits drain normally).
  double link_outage_rate = 0.0;
  /// Fraction of nodes whose coupler carries a down/repair schedule; a
  /// down coupler eliminates every worm trying to enter a link it feeds.
  double coupler_outage_rate = 0.0;
  /// Shared down/repair cycle for link and coupler outages: each faulted
  /// component is down for `outage_duration` steps out of every
  /// `outage_period`, at a per-component pseudorandom phase.
  SimTime outage_period = 64;
  SimTime outage_duration = 16;
  /// Per-(link, wavelength) probability that the wavelength is stuck —
  /// permanently held in the occupancy registry for the whole pass, as if
  /// an infinite-length worm owned it. Fixed-wavelength entrants are
  /// eliminated; converting routers retune around it.
  double stuck_wavelength_rate = 0.0;
  /// Per-link-entry probability that a worm's payload is corrupted. A
  /// corrupted worm keeps travelling (and occupying links) but its
  /// delivery is void — the destination rejects it and it must retry.
  double corruption_rate = 0.0;
  /// Per-worm probability that a successful delivery's acknowledgement is
  /// lost on the way back (the sender re-sends: a duplicate delivery).
  double ack_drop_rate = 0.0;

  bool any_fault() const {
    return link_outage_rate > 0.0 || coupler_outage_rate > 0.0 ||
           stuck_wavelength_rate > 0.0 || corruption_rate > 0.0 ||
           ack_drop_rate > 0.0;
  }

  bool operator==(const FaultConfig&) const = default;
};

/// A replayable schedule of faults, keyed by (base_seed, fault_epoch).
/// Stateless per query; set_epoch() re-keys the whole plan between rounds.
/// Thread-safe for concurrent queries (set_epoch must be externally
/// ordered before them, as the protocol's round loop naturally does).
class FaultPlan {
 public:
  /// Zero-fault plan; disabled() and never injects.
  FaultPlan() = default;

  FaultPlan(const FaultConfig& config, std::uint64_t base_seed);

  /// Re-keys every fault stream for a new epoch (protocol round).
  void set_epoch(std::uint64_t epoch);

  const FaultConfig& config() const { return config_; }
  std::uint64_t base_seed() const { return base_seed_; }
  std::uint64_t epoch() const { return epoch_; }

  /// Whether any fault stream can fire; the simulator skips all fault
  /// probes when this is false, making a zero-fault plan free.
  bool enabled() const { return enabled_; }
  bool has_stuck_wavelengths() const {
    return config_.stuck_wavelength_rate > 0.0;
  }

  /// Is `link` dark at time `now` (requires now ≥ 0)?
  bool link_down(EdgeId link, SimTime now) const;

  /// Is the coupler at `node` failed at time `now`?
  bool coupler_down(NodeId node, SimTime now) const;

  /// Is (link, wavelength) stuck for this whole epoch?
  bool wavelength_stuck(EdgeId link, Wavelength wavelength) const;

  /// Does `worm`'s payload corrupt while entering `link`?
  bool corrupts_flit(WormId worm, EdgeId link) const;

  /// Is the acknowledgement for the worm routing path `path` lost?
  bool drops_ack(PathId path) const;

 private:
  // Domain tags keep the per-kind hash streams disjoint.
  enum Domain : std::uint64_t {
    kLinkFaulty = 1,
    kLinkPhase,
    kCouplerFaulty,
    kCouplerPhase,
    kStuck,
    kCorrupt,
    kAckDrop,
  };

  std::uint64_t mix(std::uint64_t domain, std::uint64_t a,
                    std::uint64_t b) const;

  /// Uniform double in [0, 1), deterministic in (epoch key, domain, a, b).
  double uniform(std::uint64_t domain, std::uint64_t a,
                 std::uint64_t b = 0) const;

  /// Down/repair interval test shared by links and couplers.
  bool outage_down(std::uint64_t faulty_domain, std::uint64_t phase_domain,
                   std::uint64_t entity, double rate, SimTime now) const;

  FaultConfig config_;
  std::uint64_t base_seed_ = 0;
  std::uint64_t epoch_ = 0;
  std::uint64_t epoch_key_ = 0;  ///< splitmix of (base_seed, epoch)
  bool enabled_ = false;
};

}  // namespace opto
