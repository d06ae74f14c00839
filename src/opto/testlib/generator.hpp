// Seeded case generator for the differential fuzzer.
//
// generate_case(seed, index) is a pure function: it draws everything
// from Rng::stream(seed, index) and touches no global state (threads,
// time, environment), so the same (seed, index) produces a field-equal
// case — and byte-identical `opto_fuzz --dump` text — on every
// platform, thread setting, and process run: the property the
// determinism tests and the replayable repros rest on.
//
// Coverage strategy: each case draws a topology family (chain, ring,
// star, clique, random tree + chords, bridged double clique, disjoint
// chain segments, hubs + private tails — the last two aimed at multi-
// component and all-singleton contention decompositions), a path
// mix (BFS shortest paths, random simple walks, duplicated hot paths,
// zero-length paths), and a config mix across contention rules, tie
// policies, bandwidths, conversion modes, and optional fault plans —
// with occasional extremes (2^31 start times to force the simulator's
// unpacked injection sort, dense same-step launches for maximal
// contention).
#pragma once

#include <cstdint>

#include "opto/testlib/fuzz_case.hpp"

namespace opto::testlib {

/// Knobs bounding the generated cases. Defaults are sized for tens of
/// microseconds per differential check so CI can afford hundreds of
/// cases and a nightly run tens of thousands.
struct GenOptions {
  NodeId max_nodes = 20;
  std::uint32_t max_extra_edges = 12;   ///< chords beyond the family's base
  std::uint32_t max_paths = 16;
  std::uint32_t max_extra_specs = 12;   ///< worms beyond one per path
  std::uint16_t max_bandwidth = 4;
  std::uint32_t max_length = 9;         ///< worm flits
  std::uint32_t max_walk_links = 10;    ///< random-walk path length bound
  SimTime max_start_spread = 10;
  double fault_probability = 0.25;
  double conversion_probability = 0.45; ///< Full or Sparse, combined
  double pinned_probability = 0.25;     ///< case carries held channels
  std::uint32_t max_pinned = 6;         ///< pinned slots per case
};

/// Deterministically generates case `index` of stream `seed`.
FuzzCase generate_case(std::uint64_t seed, std::uint64_t index,
                       const GenOptions& options = {});

}  // namespace opto::testlib
