// Contention-resolution decision table. Every entrant other than the
// admitted one is eliminated, so `admitted` carries the whole verdict.
#include <gtest/gtest.h>

#include <vector>

#include "opto/optical/coupler.hpp"

namespace opto {
namespace {

Contender c(WormId worm, std::uint32_t priority = 0) {
  return Contender{worm, priority};
}

TEST(Coupler, ServeFirstFreeLinkAdmitsSingleEntrant) {
  const std::vector<Contender> entrants{c(3)};
  const auto outcome = resolve_contention(
      ContentionRule::ServeFirst, TiePolicy::KillAll, std::nullopt, entrants);
  EXPECT_EQ(outcome.admitted, 3u);
  EXPECT_FALSE(outcome.occupant_truncated);
}

TEST(Coupler, ServeFirstOccupiedEliminatesAllEntrants) {
  const std::vector<Contender> entrants{c(1), c(2)};
  const auto outcome = resolve_contention(
      ContentionRule::ServeFirst, TiePolicy::KillAll, c(9), entrants);
  EXPECT_EQ(outcome.admitted, kInvalidWorm);
  EXPECT_FALSE(outcome.occupant_truncated);
}

TEST(Coupler, ServeFirstTieKillAll) {
  const std::vector<Contender> entrants{c(5), c(7)};
  const auto outcome = resolve_contention(
      ContentionRule::ServeFirst, TiePolicy::KillAll, std::nullopt, entrants);
  EXPECT_EQ(outcome.admitted, kInvalidWorm);
}

TEST(Coupler, ServeFirstTieFirstWinsPicksSmallestId) {
  const std::vector<Contender> entrants{c(7), c(5), c(9)};
  const auto outcome =
      resolve_contention(ContentionRule::ServeFirst, TiePolicy::FirstWins,
                         std::nullopt, entrants);
  EXPECT_EQ(outcome.admitted, 5u);
}

TEST(Coupler, PriorityOccupantWins) {
  const std::vector<Contender> entrants{c(1, 3), c(2, 4)};
  const auto outcome = resolve_contention(
      ContentionRule::Priority, TiePolicy::KillAll, c(9, 10), entrants);
  EXPECT_EQ(outcome.admitted, kInvalidWorm);
  EXPECT_FALSE(outcome.occupant_truncated);
}

TEST(Coupler, PriorityEntrantTruncatesOccupant) {
  const std::vector<Contender> entrants{c(1, 3), c(2, 12)};
  const auto outcome = resolve_contention(
      ContentionRule::Priority, TiePolicy::KillAll, c(9, 10), entrants);
  EXPECT_EQ(outcome.admitted, 2u);
  EXPECT_TRUE(outcome.occupant_truncated);
}

TEST(Coupler, PriorityNoOccupantHighestEntrantWins) {
  const std::vector<Contender> entrants{c(4, 2), c(6, 8), c(5, 5)};
  const auto outcome = resolve_contention(
      ContentionRule::Priority, TiePolicy::KillAll, std::nullopt, entrants);
  EXPECT_EQ(outcome.admitted, 6u);
  EXPECT_FALSE(outcome.occupant_truncated);
}

TEST(Coupler, StringNames) {
  EXPECT_STREQ(to_string(ContentionRule::ServeFirst), "serve-first");
  EXPECT_STREQ(to_string(ContentionRule::Priority), "priority");
  EXPECT_STREQ(to_string(TiePolicy::KillAll), "kill-all");
  EXPECT_STREQ(to_string(TiePolicy::FirstWins), "first-wins");
}

}  // namespace
}  // namespace opto
