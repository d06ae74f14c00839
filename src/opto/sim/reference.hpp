// Flit-level reference engine for differential testing.
//
// The production Simulator tracks occupancy with an incremental claim
// registry; this reference recomputes everything from first principles
// each step, straight from the physics:
//
//   flit f of worm w crosses the coupler of its path link i at time
//   start + i + f, and survives iff it beat every cut at a position ≤ i
//   (cuts are priority truncations and the final serve-first block).
//
// Occupancy, deliveries, and drain windows all derive from that one
// closed form — no shared state with the fast engine beyond the coupler
// decision logic (including the converting-coupler policy, replayed
// against per-link wavelength histories). O(n · L)-ish per step; use only
// in tests.
#pragma once

#include <span>

#include "opto/sim/simulator.hpp"

namespace opto {

/// Runs the reference engine; the result is field-for-field comparable
/// with Simulator::run (statuses, finish times, blockers, metrics, and
/// under conversion the per-link wavelength histories).
/// `pinned` lists the held (link, wavelength) channels that
/// Simulator::set_held takes as a mask; each eliminates every entrant as
/// a pinned loss. The reference builds its own map from the list.
PassResult reference_run(const PathCollection& collection,
                         const SimConfig& config,
                         std::span<const LaunchSpec> specs,
                         std::span<const PinnedSlot> pinned = {});

}  // namespace opto
