// Case minimization: shrink_case must preserve the predicate and
// well-formedness while driving generated cases down to (near-)minimal
// reproducers.
#include <gtest/gtest.h>

#include <string>

#include "opto/testlib/differ.hpp"
#include "opto/testlib/fuzz_case.hpp"
#include "opto/testlib/generator.hpp"
#include "opto/testlib/shrink.hpp"

namespace opto::testlib {
namespace {

/// A generated case guaranteed to satisfy `predicate`, scanning the
/// stream from index 0.
FuzzCase find_case(std::uint64_t seed, const CasePredicate& predicate) {
  for (std::uint64_t i = 0; i < 2000; ++i) {
    FuzzCase fuzz = generate_case(seed, i);
    if (predicate(fuzz)) return fuzz;
  }
  ADD_FAILURE() << "no generated case satisfies the predicate";
  return generate_case(seed, 0);
}

TEST(Shrink, PreservesPredicateAndWellFormedness) {
  const CasePredicate wants_kill = [](const FuzzCase& fuzz) {
    const DiffReport report = diff_case(fuzz);
    return report.ok() && report.metrics.killed > 0;
  };
  const FuzzCase start = find_case(11, wants_kill);
  ShrinkStats stats;
  const FuzzCase small = shrink_case(start, wants_kill, {}, &stats);
  std::string error;
  EXPECT_TRUE(well_formed(small, &error)) << error;
  EXPECT_TRUE(wants_kill(small));
  EXPECT_GT(stats.checks, 0u);
  EXPECT_GE(stats.rounds, 1u);
}

TEST(Shrink, AKillNeedsOnlyTwoWorms) {
  // Any contention kill is witnessed by exactly one other worm, so the
  // minimal reproducer has two specs; the greedy passes should find it.
  const CasePredicate wants_kill = [](const FuzzCase& fuzz) {
    const DiffReport report = diff_case(fuzz);
    return report.ok() && report.metrics.killed > 0;
  };
  const FuzzCase small = shrink_case(find_case(23, wants_kill), wants_kill);
  EXPECT_EQ(small.specs.size(), 2u);
  EXPECT_LE(small.paths.size(), 2u);
  // Compaction leaves only nodes the paths actually visit. (The passes
  // are greedy and single-variable, so the coordinated global minimum —
  // two length-1 worms dead-heating on one link — is not guaranteed;
  // the footprint just has to be small.)
  EXPECT_LE(small.node_count, 12u);
  EXPECT_TRUE(wants_kill(small));
}

TEST(Shrink, StripsConfigDownToTheStructuralCore) {
  // The predicate only cares about spec count, so every optional feature
  // — faults, conversion, priority rule, bandwidth, start offsets —
  // must shrink away.
  const CasePredicate two_specs = [](const FuzzCase& fuzz) {
    return fuzz.specs.size() >= 2;
  };
  const CasePredicate interesting = [&](const FuzzCase& fuzz) {
    return two_specs(fuzz);
  };
  FuzzCase start = find_case(37, [](const FuzzCase& fuzz) {
    return fuzz.specs.size() >= 2 && fuzz.has_faults &&
           fuzz.conversion != ConversionMode::None;
  });
  const FuzzCase small = shrink_case(std::move(start), interesting);
  EXPECT_EQ(small.specs.size(), 2u);
  EXPECT_FALSE(small.has_faults);
  EXPECT_EQ(small.conversion, ConversionMode::None);
  EXPECT_EQ(small.rule, ContentionRule::ServeFirst);
  EXPECT_EQ(small.bandwidth, 1u);
  for (const LaunchSpec& spec : small.specs) {
    EXPECT_EQ(spec.start_time, 0u);
    EXPECT_EQ(spec.wavelength, 0u);
    EXPECT_EQ(spec.length, 1u);
  }
}

TEST(Shrink, RespectsTheCheckBudget) {
  const CasePredicate anything = [](const FuzzCase&) { return true; };
  ShrinkOptions options;
  options.max_checks = 7;
  ShrinkStats stats;
  shrink_case(generate_case(5, 0), anything, options, &stats);
  EXPECT_LE(stats.checks, 7u);
}

TEST(Shrink, MinimizedDivergencePredicatesStayStable) {
  // Re-shrinking an already minimal case must terminate quickly and
  // change nothing: every pass is a no-op once at a fixed point.
  const CasePredicate wants_truncation = [](const FuzzCase& fuzz) {
    const DiffReport report = diff_case(fuzz);
    return report.ok() && report.metrics.truncated > 0;
  };
  const FuzzCase once =
      shrink_case(find_case(53, wants_truncation), wants_truncation);
  ShrinkStats stats;
  const FuzzCase twice = shrink_case(once, wants_truncation, {}, &stats);
  EXPECT_EQ(once, twice);
  EXPECT_EQ(stats.improvements, 0u);
}

}  // namespace
}  // namespace opto::testlib
