#include "opto/core/priority_assign.hpp"

#include <algorithm>
#include <numeric>

#include "opto/util/assert.hpp"

namespace opto {

const char* to_string(PriorityStrategy strategy) {
  switch (strategy) {
    case PriorityStrategy::RandomPermutation:
      return "random-permutation";
    case PriorityStrategy::FixedByPath:
      return "fixed-by-path";
    case PriorityStrategy::ReverseByPath:
      return "reverse-by-path";
    case PriorityStrategy::AdversarialByPath:
      return "adversarial-by-path";
  }
  return "?";
}

namespace {

/// Ranks of the strategies that draw nothing (every one but
/// RandomPermutation), written into `ranks` (parallel to active_paths).
void by_path_ranks(PriorityStrategy strategy,
                   std::span<const PathId> active_paths,
                   std::uint32_t total_paths, std::span<std::uint32_t> ranks) {
  OPTO_ASSERT(strategy != PriorityStrategy::RandomPermutation);
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    if (strategy == PriorityStrategy::ReverseByPath) {
      OPTO_ASSERT(active_paths[i] < total_paths);
      ranks[i] = total_paths - 1 - active_paths[i];
    } else {
      ranks[i] = active_paths[i];
    }
  }
}

}  // namespace

std::vector<std::uint32_t> assign_priorities(
    PriorityStrategy strategy, std::span<const PathId> active_paths,
    std::uint32_t total_paths, Rng& rng) {
  if (strategy == PriorityStrategy::RandomPermutation)
    return rng.permutation(static_cast<std::uint32_t>(active_paths.size()));
  std::vector<std::uint32_t> ranks(active_paths.size());
  by_path_ranks(strategy, active_paths, total_paths, ranks);
  return ranks;
}

std::span<const std::uint32_t> assign_priorities(
    PriorityStrategy strategy, std::span<const PathId> active_paths,
    std::uint32_t total_paths, const CounterRng& rng,
    std::span<const std::uint32_t> uids, PriorityBuffers& buffers) {
  std::vector<std::uint32_t>& ranks = buffers.ranks;
  ranks.resize(active_paths.size());
  if (strategy != PriorityStrategy::RandomPermutation) {
    by_path_ranks(strategy, active_paths, total_paths, ranks);
    return ranks;
  }
  OPTO_ASSERT(uids.size() == active_paths.size());
  // Rank = position after sorting members by their keyed draw. Each
  // member's key is addressed by uid alone, so the resulting permutation
  // is invariant under member-vector order and any other draws this round.
  std::vector<std::uint64_t>& keys = buffers.keys;
  keys.resize(active_paths.size());
  for (std::size_t i = 0; i < keys.size(); ++i)
    keys[i] = rng.at(uids[i], CounterRng::kSlotPriority);
  std::vector<std::uint32_t>& order = buffers.order;
  order.resize(active_paths.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              if (keys[a] != keys[b]) return keys[a] < keys[b];
              return uids[a] < uids[b];
            });
  for (std::size_t r = 0; r < order.size(); ++r)
    ranks[order[r]] = static_cast<std::uint32_t>(r);
  return ranks;
}

}  // namespace opto
