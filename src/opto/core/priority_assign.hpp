// Priority-rank assignment for the priority rule.
//
// Main Theorem 1.3's upper bound holds for *any* rank assignment in which
// no two worms meeting in a round share a rank — whether ranks change per
// round, are random, or deterministic. We guarantee distinctness globally
// by handing out a permutation of [active worms]. The adversarial strategy
// reproduces the lower-bound setup of §2.2 (worm on path i gets rank i, so
// the staircase always discards the longest possible prefix).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "opto/paths/path.hpp"
#include "opto/rng/philox.hpp"
#include "opto/rng/rng.hpp"

namespace opto {

enum class PriorityStrategy : std::uint8_t {
  RandomPermutation,  ///< fresh random ranks each round (default)
  FixedByPath,        ///< rank = path id (stable across rounds)
  ReverseByPath,      ///< rank = n − path id
  AdversarialByPath,  ///< alias of FixedByPath, named for the lower bound:
                      ///< later staircase paths outrank earlier ones
};

const char* to_string(PriorityStrategy strategy);

/// Ranks for the given active worms (parallel to `active_paths`); pairwise
/// distinct. Draws from a sequential stream, so the result depends on how
/// much of `rng` was consumed before the call (legacy single-stream users,
/// e.g. the multi-hop scheduler).
std::vector<std::uint32_t> assign_priorities(
    PriorityStrategy strategy, std::span<const PathId> active_paths,
    std::uint32_t total_paths, Rng& rng);

/// Caller-owned working storage for the keyed variant below; `ranks` holds
/// its result. Kept across rounds, the buffers' capacity is reused, so a
/// steady-state protocol round allocates nothing here.
struct PriorityBuffers {
  std::vector<std::uint64_t> keys;
  std::vector<std::uint32_t> order;
  std::vector<std::uint32_t> ranks;
};

/// Keyed variant for the protocol layer: RandomPermutation ranks members by
/// their drawn u64 key (uid breaks the ~2^-64 collisions), so a member's
/// rank is a pure function of the (seed, round) behind `rng` and the set of
/// active uids — independent of member order, other draws, batching, and
/// thread count. `uids` is parallel to `active_paths`. Overwrites
/// `buffers` and returns `buffers.ranks`, parallel to `active_paths`.
std::span<const std::uint32_t> assign_priorities(
    PriorityStrategy strategy, std::span<const PathId> active_paths,
    std::uint32_t total_paths, const CounterRng& rng,
    std::span<const std::uint32_t> uids, PriorityBuffers& buffers);

}  // namespace opto
