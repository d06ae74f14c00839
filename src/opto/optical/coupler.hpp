// Coupler contention resolution — the heart of the two router types (§1).
//
// A coupler merges the signals heading for one outgoing fiber. When one or
// more worms try to enter a (link, wavelength) that may already carry
// another worm, exactly one of these happens per the configured rule:
//
//   serve-first : an occupied wavelength eliminates every newcomer; on a
//                 dead-heat between newcomers the TiePolicy decides
//                 (kill-all models photonic corruption of both signals;
//                 first-wins models the coupler control latching onto one
//                 input port).
//   priority    : the highest-priority worm wins. A losing occupant is
//                 truncated — flits already through the coupler continue
//                 as a remnant, the rest drain ("the message with higher
//                 priority is forwarded and the other suspended").
//
// This module is pure decision logic; the simulator applies the outcome to
// worm state and the occupancy registry.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "opto/optical/worm.hpp"

namespace opto {

enum class ContentionRule : std::uint8_t { ServeFirst, Priority };
enum class TiePolicy : std::uint8_t { KillAll, FirstWins };

const char* to_string(ContentionRule rule);
const char* to_string(TiePolicy policy);

/// One party in a contention: the worm id and its priority rank.
struct Contender {
  WormId worm = kInvalidWorm;
  std::uint32_t priority = 0;
};

/// Every entrant other than `admitted` is eliminated here, so the outcome
/// is two scalars and resolving a contention never allocates.
struct ContentionOutcome {
  /// Entrant allowed onto the link; kInvalidWorm if none (all entrants
  /// eliminated, occupant — if any — keeps flowing).
  WormId admitted = kInvalidWorm;
  /// True iff the occupant lost to a higher-priority entrant and must be
  /// truncated at this coupler.
  bool occupant_truncated = false;
};

/// Resolves one (link, wavelength, time-step) contention.
/// `occupant` is the worm currently flowing through the coupler on this
/// wavelength, if any. `entrants` is nonempty. Under the priority rule all
/// involved priorities must be pairwise distinct (the protocol guarantees
/// this with per-round permutation ranks).
ContentionOutcome resolve_contention(ContentionRule rule, TiePolicy tie,
                                     std::optional<Contender> occupant,
                                     std::span<const Contender> entrants);

}  // namespace opto
