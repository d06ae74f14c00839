// FuzzCase structural validation and the round trip through the
// pass-scenario form that every saved case and committed anchor uses.
#include <gtest/gtest.h>

#include <string>

#include "opto/dsl/canonical.hpp"
#include "opto/dsl/runner.hpp"
#include "opto/dsl/validate.hpp"
#include "opto/testlib/differ.hpp"
#include "opto/testlib/fuzz_case.hpp"
#include "opto/testlib/generator.hpp"
#include "opto/testlib/shrink.hpp"

namespace opto::testlib {
namespace {

/// A small hand-built case every mutation below starts from.
FuzzCase base_case() {
  FuzzCase fuzz;
  fuzz.seed = 0xfeedface12345678ull;  // bigger than 2^53: exercises the
  fuzz.index = 41;                    // string-serialized seed path
  fuzz.node_count = 3;
  fuzz.edges = {{0, 1}, {1, 2}};
  fuzz.paths = {{0, 1, 2}, {2, 1}};
  fuzz.bandwidth = 2;
  fuzz.specs.resize(2);
  fuzz.specs[0].path = 0;
  fuzz.specs[0].length = 3;
  fuzz.specs[0].wavelength = 1;
  fuzz.specs[1].path = 1;
  fuzz.specs[1].start_time = 4;
  fuzz.specs[1].length = 1;
  return fuzz;
}

TEST(FuzzCase, BaseCaseIsWellFormedAndBuilds) {
  std::string error;
  ASSERT_TRUE(well_formed(base_case(), &error)) << error;
  const auto built = build_case(base_case());
  EXPECT_EQ(built->graph->node_count(), 3u);
  EXPECT_EQ(built->collection.size(), 2u);
  EXPECT_EQ(built->config.bandwidth, 2u);
  EXPECT_EQ(built->config.faults, nullptr);
}

TEST(FuzzCase, RejectsOutOfRangeStructure) {
  std::string error;
  {
    FuzzCase fuzz = base_case();
    fuzz.edges.push_back({0, 0});  // self-loop
    EXPECT_FALSE(well_formed(fuzz, &error));
  }
  {
    FuzzCase fuzz = base_case();
    fuzz.edges.push_back({1, 0});  // duplicate of (0,1)
    EXPECT_FALSE(well_formed(fuzz, &error));
  }
  {
    FuzzCase fuzz = base_case();
    fuzz.edges.push_back({1, 7});  // endpoint out of range
    EXPECT_FALSE(well_formed(fuzz, &error));
  }
  {
    FuzzCase fuzz = base_case();
    fuzz.paths.push_back({0, 2});  // non-adjacent hop
    EXPECT_FALSE(well_formed(fuzz, &error));
  }
  {
    FuzzCase fuzz = base_case();
    fuzz.paths.push_back({0, 1, 0});  // revisits a node
    EXPECT_FALSE(well_formed(fuzz, &error));
  }
}

TEST(FuzzCase, RejectsBadSpecs) {
  std::string error;
  {
    FuzzCase fuzz = base_case();
    fuzz.specs[0].length = 0;  // worms carry at least one flit
    EXPECT_FALSE(well_formed(fuzz, &error));
  }
  {
    FuzzCase fuzz = base_case();
    fuzz.specs[0].wavelength = 2;  // >= bandwidth
    EXPECT_FALSE(well_formed(fuzz, &error));
  }
  {
    FuzzCase fuzz = base_case();
    fuzz.specs[0].path = 9;  // dangling path id
    EXPECT_FALSE(well_formed(fuzz, &error));
  }
  {
    // Equal ranks under the priority rule would trip the resolver's
    // distinct-priorities contract; well_formed must catch it first.
    FuzzCase fuzz = base_case();
    fuzz.rule = ContentionRule::Priority;
    fuzz.specs[0].priority = 5;
    fuzz.specs[1].priority = 5;
    EXPECT_FALSE(well_formed(fuzz, &error));
    fuzz.specs[1].priority = 6;
    EXPECT_TRUE(well_formed(fuzz, &error)) << error;
  }
}

TEST(FuzzCase, RejectsBadConverterAndFaultShapes) {
  std::string error;
  {
    FuzzCase fuzz = base_case();
    fuzz.conversion = ConversionMode::Sparse;
    fuzz.converters.assign(2, 1);  // must be node_count entries
    EXPECT_FALSE(well_formed(fuzz, &error));
    fuzz.converters.assign(3, 1);
    EXPECT_TRUE(well_formed(fuzz, &error)) << error;
  }
  {
    FuzzCase fuzz = base_case();
    fuzz.converters.assign(3, 1);  // converters without Sparse mode
    EXPECT_FALSE(well_formed(fuzz, &error));
  }
  {
    FuzzCase fuzz = base_case();
    fuzz.has_faults = true;
    fuzz.faults.link_outage_rate = 1.5;  // rates live in [0,1]
    EXPECT_FALSE(well_formed(fuzz, &error));
  }
  {
    FuzzCase fuzz = base_case();
    fuzz.has_faults = true;
    fuzz.faults.outage_period = 4;
    fuzz.faults.outage_duration = 9;  // must fit inside the period
    EXPECT_FALSE(well_formed(fuzz, &error));
  }
}

TEST(FuzzCase, RejectsWhatNoPassScenarioCanHold) {
  // well_formed is the scenario DSL's pass-mode domain, so every case
  // the generator or shrinker accepts can be saved and replayed.
  std::string error;
  {
    FuzzCase fuzz = base_case();
    fuzz.node_count = 1;  // explicit topologies have >= 2 nodes
    fuzz.edges.clear();
    fuzz.paths = {{0}};
    fuzz.specs.resize(1);
    fuzz.specs[0].path = 0;
    EXPECT_FALSE(well_formed(fuzz, &error));
    fuzz.node_count = 2;
    EXPECT_TRUE(well_formed(fuzz, &error)) << error;
    fuzz.node_count = 65537;  // ... and at most 65,536
    EXPECT_FALSE(well_formed(fuzz, &error));
  }
  {
    FuzzCase fuzz = base_case();
    fuzz.bandwidth = 1024;  // 4 links x 1024 fits the channel budget
    EXPECT_TRUE(well_formed(fuzz, &error)) << error;
    fuzz.node_count = 1000;
    for (NodeId v = 3; v < 1000; ++v) fuzz.edges.push_back({v - 1, v});
    EXPECT_FALSE(well_formed(fuzz, &error));  // 1,998 links x 1024 does not
  }
  {
    FuzzCase fuzz = base_case();
    fuzz.has_faults = true;
    fuzz.faults.outage_duration = 0;  // outages last at least one step
    EXPECT_FALSE(well_formed(fuzz, &error));
  }
  {
    FuzzCase fuzz = base_case();
    fuzz.has_faults = true;
    fuzz.fault_epoch = (std::uint64_t{1} << 52) - 1;  // the DSL's epoch cap
    EXPECT_TRUE(well_formed(fuzz, &error)) << error;
    fuzz.fault_epoch = std::uint64_t{1} << 52;
    EXPECT_FALSE(well_formed(fuzz, &error));
  }
}

/// FuzzCase -> pass scenario -> canonical dump -> loader -> FuzzCase.
/// Also checks that the dump is a canonical fixed point.
FuzzCase through_scenario(const FuzzCase& fuzz) {
  const std::string text = dsl::canonical_text(dsl::from_fuzz_case(fuzz));
  dsl::ScenarioSpec spec;
  dsl::DslError error;
  EXPECT_TRUE(dsl::load_scenario_text(text, "<case>", spec, error))
      << error.format();
  EXPECT_EQ(dsl::canonical_text(spec), text);
  return dsl::to_fuzz_case(spec);
}

TEST(FuzzCase, HandBuiltCasesRoundTripThroughTheScenarioForm) {
  const FuzzCase plain = base_case();  // seed above 2^53
  EXPECT_EQ(through_scenario(plain), plain);

  FuzzCase faulty = base_case();
  faulty.has_faults = true;
  faulty.faults.link_outage_rate = 0.25;
  faulty.faults.corruption_rate = 0.05;
  faulty.fault_seed = 0x8000000000000001ull;
  faulty.fault_epoch = 3;
  faulty.conversion = ConversionMode::Sparse;
  faulty.converters = {1, 0, 1};
  faulty.rule = ContentionRule::Priority;
  faulty.tie = TiePolicy::FirstWins;
  faulty.specs[1].priority = 1;
  faulty.pinned = {{3, 1}, {0, 0}};
  ASSERT_TRUE(well_formed(faulty));
  const FuzzCase back = through_scenario(faulty);
  EXPECT_EQ(back, faulty);
  const auto built = build_case(back);
  ASSERT_NE(built->config.faults, nullptr);
  EXPECT_TRUE(built->config.faults->enabled());
}

TEST(FuzzCase, GeneratedCasesRoundTripThroughTheScenarioForm) {
  constexpr std::uint64_t kSeed = 0xa11ce5ull;
  for (std::uint64_t i = 0; i < 200; ++i) {
    const FuzzCase fuzz = generate_case(kSeed, i);
    EXPECT_EQ(through_scenario(fuzz), fuzz) << "case " << i;
  }
}

TEST(FuzzCase, ShrunkCasesRoundTripThroughTheScenarioForm) {
  const CasePredicate wants_kill = [](const FuzzCase& fuzz) {
    const DiffReport report = diff_case(fuzz);
    return report.ok() && report.metrics.killed > 0;
  };
  std::uint32_t shrunk = 0;
  for (std::uint64_t i = 0; i < 40 && shrunk < 3; ++i) {
    const FuzzCase fuzz = generate_case(7, i);
    if (!wants_kill(fuzz)) continue;
    ++shrunk;
    const FuzzCase small = shrink_case(fuzz, wants_kill);
    EXPECT_EQ(through_scenario(small), small) << "case " << i;
  }
  EXPECT_EQ(shrunk, 3u);

  // Shrunk to its smallest topology: no worms, no paths, two bare nodes.
  const CasePredicate anything = [](const FuzzCase&) { return true; };
  const FuzzCase smallest = shrink_case(generate_case(7, 0), anything);
  EXPECT_EQ(smallest.node_count, 2u);
  EXPECT_TRUE(smallest.edges.empty());
  EXPECT_EQ(through_scenario(smallest), smallest);
}

}  // namespace
}  // namespace opto::testlib
