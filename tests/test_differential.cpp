// Differential testing: the fast claim-registry engine vs the flit-level
// reference engine, which recomputes occupancy from first principles.
// Every worm's status, finish time, blocker, and truncation flag — and
// all pass metrics — must agree exactly, across rules, tie policies,
// bandwidths, worm lengths, and workload families. A one-worm family
// checks the lone-worm closed form against the stepped pass too.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "opto/graph/butterfly.hpp"
#include "opto/graph/mesh.hpp"
#include "opto/paths/butterfly_paths.hpp"
#include "opto/paths/lowerbound_structures.hpp"
#include "opto/paths/workloads.hpp"
#include "opto/rng/rng.hpp"
#include "opto/sim/reference.hpp"
#include "opto/sim/simulator.hpp"
#include "opto/testlib/differ.hpp"
#include "opto/testlib/generator.hpp"

namespace opto {
namespace {

void expect_equivalent(const PathCollection& collection,
                       const SimConfig& config,
                       const std::vector<LaunchSpec>& specs,
                       const std::string& context) {
  Simulator fast(collection, config);
  const PassResult a = fast.run(specs);
  const PassResult b = reference_run(collection, config, specs);

  ASSERT_EQ(a.worms.size(), b.worms.size()) << context;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(a.worms[i].status, b.worms[i].status)
        << context << " worm " << i;
    EXPECT_EQ(a.worms[i].finish_time, b.worms[i].finish_time)
        << context << " worm " << i;
    EXPECT_EQ(a.worms[i].truncated, b.worms[i].truncated)
        << context << " worm " << i;
    if (a.worms[i].status == WormStatus::Killed) {
      EXPECT_EQ(a.worms[i].blocked_by, b.worms[i].blocked_by)
          << context << " worm " << i;
      EXPECT_EQ(a.worms[i].blocked_at_link, b.worms[i].blocked_at_link)
          << context << " worm " << i;
    }
  }
  EXPECT_EQ(a.metrics.launched, b.metrics.launched) << context;
  EXPECT_EQ(a.metrics.delivered, b.metrics.delivered) << context;
  EXPECT_EQ(a.metrics.killed, b.metrics.killed) << context;
  EXPECT_EQ(a.metrics.truncated, b.metrics.truncated) << context;
  EXPECT_EQ(a.metrics.truncated_arrivals, b.metrics.truncated_arrivals)
      << context;
  EXPECT_EQ(a.metrics.contentions, b.metrics.contentions) << context;
  EXPECT_EQ(a.metrics.worm_steps, b.metrics.worm_steps) << context;
  EXPECT_EQ(a.metrics.makespan, b.metrics.makespan) << context;
}

std::vector<LaunchSpec> random_specs(const PathCollection& collection,
                                     std::uint16_t bandwidth,
                                     std::uint32_t length, SimTime spread,
                                     Rng& rng) {
  std::vector<LaunchSpec> specs(collection.size());
  const auto ranks = rng.permutation(collection.size());
  for (PathId id = 0; id < collection.size(); ++id) {
    specs[id].path = id;
    specs[id].start_time = static_cast<SimTime>(
        rng.next_below(static_cast<std::uint64_t>(spread)));
    specs[id].wavelength =
        static_cast<Wavelength>(rng.next_below(bandwidth));
    specs[id].priority = ranks[id];
    specs[id].length = length;
  }
  return specs;
}

using Params = std::tuple<ContentionRule, TiePolicy, int, int>;

class Differential : public ::testing::TestWithParam<Params> {
 protected:
  SimConfig config() const {
    SimConfig cfg;
    cfg.rule = std::get<0>(GetParam());
    cfg.tie = std::get<1>(GetParam());
    cfg.bandwidth = static_cast<std::uint16_t>(std::get<2>(GetParam()));
    return cfg;
  }
  std::uint32_t length() const {
    return static_cast<std::uint32_t>(std::get<3>(GetParam()));
  }
};

TEST_P(Differential, TorusRandomFunctions) {
  auto topo = std::make_shared<MeshTopology>(make_torus({4, 4}));
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    const auto collection = mesh_random_function(topo, rng);
    const auto specs =
        random_specs(collection, config().bandwidth, length(), 6, rng);
    expect_equivalent(collection, config(), specs,
                      "torus seed " + std::to_string(seed));
  }
}

TEST_P(Differential, ButterflyPermutations) {
  auto topo = std::make_shared<ButterflyTopology>(make_butterfly(4));
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(100 + seed);
    const auto perm = random_permutation(topo->rows(), rng);
    std::vector<std::pair<std::uint32_t, std::uint32_t>> requests;
    for (std::uint32_t r = 0; r < topo->rows(); ++r)
      requests.emplace_back(r, perm[r]);
    const auto collection = butterfly_io_collection(topo, requests);
    const auto specs =
        random_specs(collection, config().bandwidth, length(), 5, rng);
    expect_equivalent(collection, config(), specs,
                      "butterfly seed " + std::to_string(seed));
  }
}

TEST_P(Differential, LowerBoundStructures) {
  StructureBuilder builder;
  builder.add_staircase(5, 3 * length() + 2, std::max(2u, length()));
  builder.add_bundle(10, 8);
  builder.add_triangle(std::max(2u, length()) + 4, std::max(2u, length()));
  const auto collection = std::move(builder).build();
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(200 + seed);
    const auto specs =
        random_specs(collection, config().bandwidth, length(), 4, rng);
    expect_equivalent(collection, config(), specs,
                      "structures seed " + std::to_string(seed));
  }
}

TEST_P(Differential, TightPackedBundle) {
  // Worst-case contention: everyone in a tiny delay window on one chain.
  const auto collection = make_bundle_collection(1, 16, 12);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(300 + seed);
    const auto specs =
        random_specs(collection, config().bandwidth, length(), 3, rng);
    expect_equivalent(collection, config(), specs,
                      "bundle seed " + std::to_string(seed));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Differential,
    ::testing::Combine(
        ::testing::Values(ContentionRule::ServeFirst, ContentionRule::Priority),
        ::testing::Values(TiePolicy::KillAll, TiePolicy::FirstWins),
        ::testing::Values(1, 3),
        ::testing::Values(1, 2, 7)),
    [](const ::testing::TestParamInfo<Params>& info) {
      std::string name = std::get<0>(info.param) == ContentionRule::ServeFirst
                             ? "sf"
                             : "prio";
      name += std::get<1>(info.param) == TiePolicy::KillAll ? "_killall"
                                                            : "_firstwins";
      name += "_B" + std::to_string(std::get<2>(info.param));
      name += "_L" + std::to_string(std::get<3>(info.param));
      return name;
    });

// One worm alone: an untraced, fault-free pass settles it in closed form
// when no hold of its λ lies on its route, and steps it otherwise. Each
// case is a generated fuzz case cut to one spec, with random holds (some
// on the worm's own λ and route), a conversion mode in turn, and a fresh
// start time and length; diff_case compares the untraced pass with the
// traced, stepped one on every compare_runs field, and both with
// reference_run.
TEST(LoneWorm, ClosedFormMatchesSteppedPassAndReference) {
  constexpr std::uint64_t kSeed = 0x10e3;
  constexpr std::uint64_t kCases = 600;
  std::uint64_t cases = 0;
  std::uint64_t closed_form = 0;  ///< λ held on no link of the route
  std::uint64_t closed_with_links = 0;
  std::uint64_t empty_routes = 0;
  for (std::uint64_t index = 0; index < kCases; ++index) {
    testlib::FuzzCase fuzz = testlib::generate_case(kSeed, index);
    if (fuzz.specs.empty()) continue;
    ++cases;
    Rng rng(Rng::stream(kSeed, index + kCases));
    fuzz.has_faults = false;
    fuzz.conversion = static_cast<ConversionMode>(index % 3);
    fuzz.converters.clear();
    if (fuzz.conversion == ConversionMode::Sparse)
      for (NodeId node = 0; node < fuzz.node_count; ++node)
        fuzz.converters.push_back(rng.next_below(2) == 0 ? 1 : 0);
    LaunchSpec spec = fuzz.specs[rng.next_below(fuzz.specs.size())];
    spec.start_time = static_cast<SimTime>(rng.next_below(40));
    spec.length = 1 + static_cast<std::uint32_t>(rng.next_below(12));
    fuzz.specs = {spec};

    const auto link_count = static_cast<EdgeId>(2 * fuzz.edges.size());
    fuzz.pinned.clear();
    for (std::uint64_t k = link_count > 0 ? rng.next_below(4) : 0; k > 0; --k)
      fuzz.pinned.push_back(
          {static_cast<EdgeId>(rng.next_below(link_count)),
           static_cast<Wavelength>(rng.next_below(fuzz.bandwidth))});
    const auto built = testlib::build_case(fuzz);
    const PathView route = built->collection.path(spec.path);
    if (route.empty()) ++empty_routes;
    if (!route.empty() && rng.next_below(3) == 0)
      fuzz.pinned.push_back(
          {route.link(static_cast<std::uint32_t>(
               rng.next_below(route.length()))),
           spec.wavelength});
    bool own_held = false;
    for (const PinnedSlot& slot : fuzz.pinned)
      for (std::uint32_t i = 0; i < route.length(); ++i)
        own_held |= slot.link == route.link(i) &&
                    slot.wavelength == spec.wavelength;
    if (!own_held) ++closed_form;
    if (!own_held && !route.empty()) ++closed_with_links;

    const testlib::DiffReport report = testlib::diff_case(fuzz);
    EXPECT_TRUE(report.ok()) << "case " << index << "\n" << report.summary();
  }
  // Of 592 cases, 424 take the closed form (268 of them on a route with
  // links, 156 on an empty one) and 168 step a worm whose λ is held.
  RecordProperty("cases", static_cast<int>(cases));
  RecordProperty("closed_form", static_cast<int>(closed_form));
  RecordProperty("closed_with_links", static_cast<int>(closed_with_links));
  EXPECT_GE(cases, kCases * 9 / 10);
  EXPECT_GE(closed_form, cases / 2);
  EXPECT_GE(closed_with_links, cases / 3);
  EXPECT_GE(cases - closed_form, cases / 5);
  EXPECT_GT(empty_routes, 0u);
}

}  // namespace
}  // namespace opto
