#include <gtest/gtest.h>

#include "opto/sim/occupancy.hpp"

namespace opto {
namespace {

// A small channel space covering every (link, wavelength) the cases use.
constexpr std::size_t kLinks = 16;
constexpr std::uint32_t kBandwidth = 4;

Claim make_claim(WormId worm, SimTime entry, SimTime release,
                 std::uint32_t link_index = 0, std::uint32_t priority = 0) {
  Claim claim;
  claim.worm = worm;
  claim.priority = priority;
  claim.link_index = link_index;
  claim.entry = entry;
  claim.release = release;
  return claim;
}

TEST(Occupancy, EmptyHasNoOccupant) {
  OccupancyRegistry registry(kLinks, kBandwidth);
  EXPECT_FALSE(registry.occupant(3, 0, 10).has_value());
}

TEST(Occupancy, ClaimVisibleWithinWindow) {
  OccupancyRegistry registry(kLinks, kBandwidth);
  registry.claim(3, 1, make_claim(7, 5, 9));
  EXPECT_TRUE(registry.occupant(3, 1, 5).has_value());
  EXPECT_TRUE(registry.occupant(3, 1, 8).has_value());
  EXPECT_FALSE(registry.occupant(3, 1, 9).has_value());  // released
  EXPECT_FALSE(registry.occupant(3, 0, 6).has_value());  // other wavelength
  EXPECT_FALSE(registry.occupant(4, 1, 6).has_value());  // other link
}

TEST(Occupancy, OverwriteReplacesStaleClaim) {
  OccupancyRegistry registry(kLinks, kBandwidth);
  registry.claim(2, 0, make_claim(1, 0, 4));
  registry.claim(2, 0, make_claim(9, 4, 8));
  const auto occ = registry.occupant(2, 0, 5);
  ASSERT_TRUE(occ.has_value());
  EXPECT_EQ(occ->worm, 9u);
}

TEST(Occupancy, ShortenCapsRelease) {
  OccupancyRegistry registry(kLinks, kBandwidth);
  registry.claim(2, 0, make_claim(1, 0, 10));
  registry.shorten(2, 0, 1, 6);
  EXPECT_TRUE(registry.occupant(2, 0, 5).has_value());
  EXPECT_FALSE(registry.occupant(2, 0, 6).has_value());
}

TEST(Occupancy, ShortenIgnoresForeignClaims) {
  OccupancyRegistry registry(kLinks, kBandwidth);
  registry.claim(2, 0, make_claim(1, 0, 10));
  registry.shorten(2, 0, /*worm=*/5, 3);  // not the owner
  EXPECT_TRUE(registry.occupant(2, 0, 8).has_value());
}

TEST(Occupancy, ShortenNeverExtends) {
  OccupancyRegistry registry(kLinks, kBandwidth);
  registry.claim(2, 0, make_claim(1, 0, 5));
  registry.shorten(2, 0, 1, 9);
  EXPECT_FALSE(registry.occupant(2, 0, 6).has_value());
}

TEST(Occupancy, ClearEmpties) {
  OccupancyRegistry registry(kLinks, kBandwidth);
  registry.claim(1, 0, make_claim(1, 0, 5));
  ASSERT_NE(registry.find(1, 0, 2), nullptr);
  registry.clear();
  EXPECT_EQ(registry.find(1, 0, 2), nullptr);
}

TEST(Occupancy, ShortenBelowEntryClampsToEntry) {
  // A release can never retreat past the claim's entry step: the head flit
  // occupied the link for at least that step.
  OccupancyRegistry registry(kLinks, kBandwidth);
  registry.claim(2, 0, make_claim(1, /*entry=*/5, /*release=*/15));
  EXPECT_EQ(registry.shorten(2, 0, 1, /*new_release=*/2), 10);  // 15 -> 5
  EXPECT_FALSE(registry.occupant(2, 0, 5).has_value());
}

TEST(Occupancy, DoubleShortenKeepsMinimum) {
  OccupancyRegistry registry(kLinks, kBandwidth);
  registry.claim(2, 0, make_claim(1, 0, 20));
  EXPECT_EQ(registry.shorten(2, 0, 1, 8), 12);
  // A later, shallower cut must not push the release back out.
  EXPECT_EQ(registry.shorten(2, 0, 1, 11), 0);
  EXPECT_TRUE(registry.occupant(2, 0, 7).has_value());
  EXPECT_FALSE(registry.occupant(2, 0, 8).has_value());
}

TEST(Occupancy, StatsCountProbesAndHits) {
  OccupancyRegistry registry(kLinks, kBandwidth);
  registry.claim(3, 1, make_claim(7, 0, 10));
  registry.reset_stats();
  EXPECT_TRUE(registry.occupant(3, 1, 5).has_value());
  const auto after_hit = registry.stats();
  EXPECT_EQ(after_hit.probes, 1u);  // direct-mapped: one slot per lookup
  EXPECT_EQ(after_hit.hits, 1u);
  EXPECT_FALSE(registry.occupant(9, 0, 5).has_value());
  const auto after_miss = registry.stats();
  EXPECT_EQ(after_miss.probes, 2u);
  EXPECT_EQ(after_miss.hits, 1u);
  registry.reset_stats();
  EXPECT_EQ(registry.stats().probes, 0u);
  EXPECT_EQ(registry.stats().hits, 0u);
}

TEST(Occupancy, ReclaimingSameKeyDoesNotGrowSize) {
  OccupancyRegistry registry(kLinks, kBandwidth);
  registry.claim(4, 0, make_claim(1, 0, 5));
  registry.claim(4, 0, make_claim(2, 10, 20));  // expired claim overwritten
  const Claim* occ = registry.find(4, 0, 12);
  ASSERT_NE(occ, nullptr);
  EXPECT_EQ(occ->worm, 2u);
  EXPECT_EQ(occ->entry, 10);
  // The overwrite took the key's one slot: no other channel gained a claim.
  for (EdgeId link = 0; link < kLinks; ++link)
    for (Wavelength w = 0; w < kBandwidth; ++w)
      if (link != 4 || w != 0) {
        EXPECT_EQ(registry.find(link, w, 12), nullptr);
      }
}

TEST(Occupancy, ClearThenReuseAcrossManyPasses) {
  // The epoch-based O(1) clear must isolate passes from each other while
  // reusing the same slot storage.
  OccupancyRegistry registry(kLinks, kBandwidth);
  for (int pass = 0; pass < 100; ++pass) {
    registry.clear();
    EXPECT_EQ(registry.find(7, 0, 1), nullptr);
    registry.claim(7, 0, make_claim(static_cast<WormId>(pass), 0, 10));
    const auto occ = registry.occupant(7, 0, 1);
    ASSERT_TRUE(occ.has_value());
    EXPECT_EQ(occ->worm, static_cast<WormId>(pass));
  }
}

}  // namespace
}  // namespace opto
