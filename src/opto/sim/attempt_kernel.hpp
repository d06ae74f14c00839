// Vectorized kernels for the simulator's packed attempt loop — the
// per-step hot path that turns every running worm into a sortable
// (group key, worm id) word and pre-screens the sorted groups against the
// occupancy registry (DESIGN.md §9).
//
// Both kernels exist at three lane levels (par/simd.hpp): a scalar
// reference, SSE2, and AVX2. The scalar implementation defines the
// semantics; the vector versions are required to produce byte-identical
// output for every input (tests/test_simd_attempt.cpp fuzzes this, the
// simd-diff CI job enforces it end-to-end). Dispatch is resolved once per
// process from simd::active_level(); the simulator additionally passes
// `allow_simd = false` when its SimConfig::simd override says scalar.
//
// Key layout (bandwidth-adaptive, chosen per simulator):
//   key32  = (link << (wl_bits + 1)) | merge_bit? | wavelength
//   word   = (u64(key32) << id_bits) | worm id
// where merge_bit = 1 << wl_bits marks a converting coupler's link (its
// entrants group by link alone). flat_keys[] pre-bakes the link and merge
// halves per flat-path position, so key build is one gather + a masked OR.
#pragma once

#include <cstdint>
#include <span>

#include "opto/optical/worm.hpp"

namespace opto::attempt {

/// Builds the packed attempt word for every running worm:
///   out[i] = (u64(flat_keys[cursor[ids[i]]]
///             | (merge ? 0 : wl[ids[i]])) << id_bits) | ids[i]
/// where merge = flat_keys[...] & merge_bit. `out` must hold ids.size()
/// words. Fault-free passes only — fault elimination interleaves with key
/// build and stays on the simulator's scalar loop.
void build_keys(std::span<const WormId> ids, const std::uint32_t* cursor,
                const std::uint32_t* flat_keys, const std::uint32_t* wl,
                std::uint32_t merge_bit, unsigned id_bits, bool allow_simd,
                std::uint64_t* out);

/// Flags the sorted attempt words whose group is a singleton on a
/// non-merge key whose channel is free in the registry at `now`
/// (epoch mismatch or release ≤ now): mask[i] = 1 exactly for those, else
/// 0. The simulator admits flagged worms in place, skipping the group
/// build and registry find — legal because a same-step truncation can
/// never free a channel at `now` and distinct groups never share one, so
/// a channel free before the step's groups run stays free at the group's
/// turn. `mask` must hold keys.size() bytes.
///
/// Channel index = (key32 >> (wl_bits + 1)) * bandwidth + wavelength,
/// matching OccupancyRegistry's channel layout; wl_bits is implied by
/// merge_bit = 1 << wl_bits.
void prescan_free_singletons(std::span<const std::uint64_t> keys,
                             unsigned id_bits, std::uint32_t merge_bit,
                             std::uint32_t bandwidth,
                             const std::uint32_t* epochs,
                             std::uint32_t current_epoch,
                             const SimTime* releases, SimTime now,
                             bool allow_simd, std::uint8_t* mask);

/// Level-pinned entry points for differential tests: `level` is a
/// simd::kLevel* constant. Levels above simd::cpu_level() (or not compiled
/// in) fall back to scalar; returns the level actually used.
int build_keys_at_level(int level, std::span<const WormId> ids,
                        const std::uint32_t* cursor,
                        const std::uint32_t* flat_keys,
                        const std::uint32_t* wl, std::uint32_t merge_bit,
                        unsigned id_bits, std::uint64_t* out);
int prescan_at_level(int level, std::span<const std::uint64_t> keys,
                     unsigned id_bits, std::uint32_t merge_bit,
                     std::uint32_t bandwidth, const std::uint32_t* epochs,
                     std::uint32_t current_epoch, const SimTime* releases,
                     SimTime now, std::uint8_t* mask);

}  // namespace opto::attempt
