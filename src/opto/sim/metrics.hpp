// Aggregated counters for one forward pass of the simulator.
#pragma once

#include <cstdint>

#include "opto/optical/worm.hpp"

namespace opto {

struct PassMetrics {
  std::uint64_t launched = 0;    ///< worms injected
  std::uint64_t delivered = 0;   ///< tails that fully arrived *intact*
  std::uint64_t killed = 0;      ///< worms eliminated at a coupler
  std::uint64_t truncated = 0;   ///< truncation events (one worm may be cut
                                 ///< more than once)
  std::uint64_t truncated_arrivals = 0;  ///< remnants that reached their
                                         ///< destination (failed deliveries)
  /// Contention events: for fixed-wavelength couplers, one per group that
  /// had an occupant or multiple entrants; at converting couplers, one per
  /// entrant that found its preferred wavelength taken.
  std::uint64_t contentions = 0;
  std::uint64_t retunes = 0;     ///< wavelength conversions performed
  /// Fault-injection accounting (see sim/faults.hpp) — kept separate from
  /// `killed` so contention losses and physical-fault losses are
  /// distinguishable all the way up to the result JSON.
  std::uint64_t fault_kills = 0;  ///< eliminated by a dark link, failed
                                  ///< coupler, or stuck wavelength
  /// Worms eliminated by a held channel — a wavelength held by an
  /// established connection of the streaming engine (Simulator::set_held).
  /// Kept apart from both `killed` (no worm witnesses the
  /// loss) and `fault_kills` (nothing is broken; the channel is busy).
  std::uint64_t pinned_blocks = 0;
  std::uint64_t corrupted = 0;    ///< flit-corruption events
  std::uint64_t corrupted_arrivals = 0;  ///< deliveries voided by corruption
  SimTime makespan = 0;          ///< last event time of the pass
  std::uint64_t worm_steps = 0;  ///< total link entries (engine throughput)
  /// Total (link, step) slots occupied by flits — admissions minus what
  /// truncations trimmed. Divide by link_count × (makespan+1) × B for the
  /// network's optical utilization.
  std::uint64_t link_busy_steps = 0;

  // Engine instrumentation (cheap counters, always on; see also
  // OPTO_PROFILE for wall-clock timing). The reference engine does not
  // populate these — they describe the fast engine's work, not the model.
  std::uint64_t steps = 0;            ///< time-loop iterations simulated
  std::uint64_t registry_probes = 0;  ///< occupancy-table slots inspected
  std::uint64_t registry_hits = 0;    ///< lookups that found an occupant
  std::uint64_t peak_inflight = 0;    ///< max worms running+draining at once
  /// Wall-clock nanoseconds spent in the pass; populated only when the
  /// OPTO_PROFILE environment variable is set (non-empty).
  std::uint64_t wall_ns = 0;

  /// Fraction of (link, wavelength, step) slots that carried a flit.
  double utilization(std::uint64_t link_count, std::uint16_t bandwidth) const;
};

}  // namespace opto
