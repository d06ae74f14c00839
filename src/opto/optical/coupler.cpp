#include "opto/optical/coupler.hpp"

#include <algorithm>

#include "opto/util/assert.hpp"

namespace opto {

const char* to_string(ContentionRule rule) {
  return rule == ContentionRule::ServeFirst ? "serve-first" : "priority";
}

const char* to_string(TiePolicy policy) {
  return policy == TiePolicy::KillAll ? "kill-all" : "first-wins";
}

ContentionOutcome resolve_contention(ContentionRule rule, TiePolicy tie,
                                     std::optional<Contender> occupant,
                                     std::span<const Contender> entrants) {
  OPTO_ASSERT(!entrants.empty());
  ContentionOutcome outcome;

  if (rule == ContentionRule::ServeFirst) {
    // Wavelength already in use: every newcomer is eliminated.
    if (occupant.has_value()) return outcome;
    if (entrants.size() == 1) {
      outcome.admitted = entrants.front().worm;
      return outcome;
    }
    // Dead-heat between newcomers.
    if (tie == TiePolicy::KillAll) return outcome;
    // FirstWins: smallest worm id models a fixed input-port scan order.
    const Contender* winner = &entrants.front();
    for (const Contender& c : entrants)
      if (c.worm < winner->worm) winner = &c;
    outcome.admitted = winner->worm;
    return outcome;
  }

  // Priority rule: strictly highest rank wins among occupant + entrants.
  const Contender* best = nullptr;
  for (const Contender& c : entrants) {
    if (best != nullptr)
      OPTO_ASSERT_MSG(c.priority != best->priority,
                      "two worms with equal priority met (ranks must be "
                      "pairwise distinct per round)");
    if (best == nullptr || c.priority > best->priority) best = &c;
  }
  if (occupant.has_value()) {
    OPTO_ASSERT_MSG(occupant->priority != best->priority,
                    "entrant and occupant share a priority rank");
    // Occupant keeps flowing; all entrants die.
    if (occupant->priority > best->priority) return outcome;
    outcome.occupant_truncated = true;
  }
  outcome.admitted = best->worm;
  return outcome;
}

}  // namespace opto
