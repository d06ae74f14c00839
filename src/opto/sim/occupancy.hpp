// Occupancy registry: who is currently streaming through each
// (directed link, wavelength) pair.
//
// A claim records the occupant worm, its priority, where the link sits on
// the occupant's path, when its head entered, and when the link frees up
// (entry + flit length at that link). Priority truncation shrinks release
// times via shorten(); an admitted winner simply overwrites the key (the
// loser's surviving flits are strictly ahead of the winner's, so the link
// is never double-booked — see the simulator's model notes).
//
// Storage is a direct-mapped channel table: the full channel space
// link_count × B (channel = link · B + λ) laid out as SoA arrays, so every
// find/claim/shorten is one array access (probes = 1 per lookup by
// construction). clear() is O(1): slots carry an epoch stamp and a bumped
// epoch makes every slot read as empty. Expiry is judged at read time
// (release ≤ now reads as free), so nothing is ever swept. Lookup
// probes and hits are counted; the simulator surfaces them in PassMetrics
// so registry behaviour is visible in BENCH JSON.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "opto/graph/graph.hpp"
#include "opto/optical/worm.hpp"
#include "opto/util/assert.hpp"

namespace opto {

/// The supported channel space: link_count × bandwidth must not exceed
/// 2^20. The DSL validator rejects larger programs and the Simulator
/// constructor asserts it. Under the budget the registry's arrays stay
/// ≤ 36 MiB, and the simulator's packed attempt key needs at most
/// link_bits + wl_bits + 1 ≤ 22 bits, so it always fits its 32-bit half.
inline constexpr std::uint64_t kMaxChannels = std::uint64_t{1} << 20;

/// The largest bandwidth a Simulator on `graph` takes: within the channel
/// budget, and within the 16 bits of a Wavelength.
inline std::uint32_t max_bandwidth(const Graph& graph) {
  const std::uint64_t links = std::max<std::uint64_t>(1, graph.link_count());
  return static_cast<std::uint32_t>(
      std::min<std::uint64_t>(kMaxChannels / links, 0xffff));
}

struct Claim {
  WormId worm = kInvalidWorm;
  std::uint32_t priority = 0;
  std::uint32_t link_index = 0;  ///< position of this link on worm's path
  SimTime entry = 0;             ///< head entered the link at this step
  SimTime release = 0;           ///< first step the link is free again
};

class OccupancyRegistry {
 public:
  struct Stats {
    std::uint64_t probes = 0;  ///< slots inspected across all lookups
    std::uint64_t hits = 0;    ///< lookups that found a live occupant
  };

  /// A table over the channel space `link_count * bandwidth`; keys
  /// outside it are undefined behaviour (the simulator guarantees them).
  OccupancyRegistry(std::size_t link_count, std::uint32_t bandwidth);

  /// Accounts a lookup the caller answered without the table (a held
  /// channel), so the stats read as if it had been a find().
  void count_external_probe(bool hit) const {
    ++stats_.probes;
    stats_.hits += hit ? 1 : 0;
  }

  /// The live occupant of (link, wavelength) at time `now`, or nullptr.
  /// The pointer is stable; a later claim() of the channel rewrites it.
  const Claim* find(EdgeId link, Wavelength wavelength, SimTime now) const;

  /// Copying convenience wrapper over find().
  std::optional<Claim> occupant(EdgeId link, Wavelength wavelength,
                                SimTime now) const;

  /// Records/overwrites the claim for (link, wavelength).
  void claim(EdgeId link, Wavelength wavelength, const Claim& claim);

  /// Caps the release time of `worm`'s claim on (link, wavelength) at
  /// `new_release` (no-op if the key is now owned by another worm or the
  /// claim already releases earlier; a cap below the entry time clamps to
  /// it). Returns the busy steps trimmed.
  SimTime shorten(EdgeId link, Wavelength wavelength, WormId worm,
                  SimTime new_release);

  /// Forgets every claim. O(1): bumps the slot epoch.
  void clear();

  const Stats& stats() const { return stats_; }
  void reset_stats() { stats_ = Stats{}; }

 private:
  std::size_t index(EdgeId link, Wavelength wavelength) const {
    const std::size_t idx =
        static_cast<std::size_t>(link) * bandwidth_ + wavelength;
    OPTO_DASSERT(idx < claim_.size());
    return idx;
  }

  std::uint32_t bandwidth_;
  std::uint32_t epoch_ = 1;
  mutable Stats stats_;
  std::vector<std::uint32_t> epoch_of_;
  std::vector<Claim> claim_;
};

}  // namespace opto
