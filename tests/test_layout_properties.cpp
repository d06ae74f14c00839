// Property sweeps across the whole lightpath-layout family: for every
// (family, base), routes must chain source→destination using only tunnels
// from the kept-lit set, and coarser bases can never need more
// wavelengths.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "opto/paths/lightpath_layout.hpp"
#include "opto/paths/tree_layout.hpp"
#include "opto/rng/rng.hpp"

namespace opto {
namespace {

struct FamilyCase {
  std::string family;
  std::uint32_t base;
};

class LayoutProperties
    : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  // families: 0 chain, 1 ring, 2 mesh, 3 tree.
  int family() const { return std::get<0>(GetParam()); }
  std::uint32_t base() const {
    return static_cast<std::uint32_t>(std::get<1>(GetParam()));
  }

  struct Instance {
    std::shared_ptr<const Graph> graph;
    PathCollection lightpaths;
    std::function<std::vector<Path>(NodeId, NodeId)> route;
    NodeId nodes;
    std::uint32_t wavelengths;
  };

  Instance make(std::uint32_t base_override) const {
    Instance inst;
    switch (family()) {
      case 0: {
        auto layout = make_chain_layout(64, base_override);
        inst.graph = layout.graph;
        inst.lightpaths = layout_lightpaths(layout);
        inst.route = [layout](NodeId s, NodeId d) {
          return layout_route(layout, s, d);
        };
        inst.nodes = 64;
        inst.wavelengths = layout_wavelength_congestion(layout);
        break;
      }
      case 1: {
        auto layout = make_ring_layout(64, base_override);
        inst.graph = layout.graph;
        inst.lightpaths = ring_layout_lightpaths(layout);
        inst.route = [layout](NodeId s, NodeId d) {
          return ring_layout_route(layout, s, d);
        };
        inst.nodes = 64;
        inst.wavelengths = ring_layout_wavelength_congestion(layout);
        break;
      }
      case 2: {
        auto layout = make_mesh_layout(8, base_override);
        inst.graph = layout.graph;
        inst.lightpaths = mesh_layout_lightpaths(layout);
        inst.route = [layout](NodeId s, NodeId d) {
          return mesh_layout_route(layout, s, d);
        };
        inst.nodes = 64;
        inst.wavelengths = mesh_layout_wavelength_congestion(layout);
        break;
      }
      default: {
        Rng rng(99);
        auto layout = make_tree_layout(random_tree_parents(64, rng),
                                       base_override);
        inst.graph = layout.graph;
        inst.lightpaths = tree_layout_lightpaths(layout);
        inst.route = [layout](NodeId s, NodeId d) {
          return tree_layout_route(layout, s, d);
        };
        inst.nodes = 64;
        inst.wavelengths = tree_layout_wavelength_congestion(layout);
        break;
      }
    }
    return inst;
  }
};

TEST_P(LayoutProperties, RoutesChainAndUseKeptTunnels) {
  const auto inst = make(base());
  const auto contains = [&](PathView tunnel) {
    for (const PathView candidate : inst.lightpaths.paths())
      if (candidate == tunnel) return true;
    return false;
  };
  Rng rng(7);
  for (int sample = 0; sample < 25; ++sample) {
    const auto src = static_cast<NodeId>(rng.next_below(inst.nodes));
    const auto dst = static_cast<NodeId>(rng.next_below(inst.nodes));
    const auto route = inst.route(src, dst);
    if (src == dst) {
      EXPECT_TRUE(route.empty());
      continue;
    }
    ASSERT_FALSE(route.empty());
    EXPECT_EQ(route.front().source(), src);
    EXPECT_EQ(route.back().destination(), dst);
    for (std::size_t i = 0; i < route.size(); ++i) {
      if (i > 0) {
        EXPECT_EQ(route[i].source(), route[i - 1].destination());
      }
      EXPECT_TRUE(contains(route[i])) << "tunnel " << i << " not kept lit";
    }
  }
}

TEST_P(LayoutProperties, CoarserBaseNeverNeedsMoreWavelengths) {
  // Compare against the doubled base (the ring accepts only bases whose
  // powers hit n = 64, i.e. 2, 4, 8 — doubling stays valid below 8).
  if (base() >= 8) GTEST_SKIP();
  const auto fine = make(base());
  const auto coarse = make(base() * 2);
  EXPECT_GE(fine.wavelengths, coarse.wavelengths);
}

// Outside the macro: brace-initializer commas would split its arguments.
std::string layout_case_name(
    const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
  static const char* kFamilies[] = {"chain", "ring", "mesh", "tree"};
  return std::string(kFamilies[std::get<0>(info.param)]) + "_b" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LayoutProperties,
    ::testing::Combine(::testing::Values(0, 1, 2, 3),
                       ::testing::Values(2, 4, 8)),
    layout_case_name);

}  // namespace
}  // namespace opto
