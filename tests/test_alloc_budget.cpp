// Allocation budgets for the per-trial instance pipeline: building a
// mesh random function and measuring its C̃. Counted with the obs
// allocation hook, so a per-path hash set or a per-link vector creeping
// back into paths/ fails here rather than only in a benchmark profile.
// The same count shows whether a collection's C̃ is cached: a cached read
// allocates nothing, a recomputation allocates its inversion.
// Skipped when observation is compiled out (OPTO_OBS_ENABLED=0), where
// the hook counts nothing.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "opto/graph/graph.hpp"
#include "opto/graph/mesh.hpp"
#include "opto/obs/obs.hpp"
#include "opto/paths/workloads.hpp"
#include "opto/rng/rng.hpp"

namespace opto {
namespace {

// Per dimension-order path: two coordinate vectors, the node route's
// growth, the link vector. A hash set per path costs ~20 more.
constexpr std::uint64_t kAllocsPerPath = 12;
// One C̃ computation: the CSR offsets and users arrays, the per-path
// results and the sharer marks — independent of the collection's size.
constexpr std::uint64_t kAllocsPerCongestion = 8;

class AllocBudget : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = obs::enabled();
#if !OPTO_OBS_ENABLED
    GTEST_SKIP() << "observation compiled out: allocations are not counted";
#endif
    obs::set_enabled(true);
    const std::uint64_t before = obs::alloc_count();
    int* volatile sentinel = new int(0);
    delete sentinel;
    if (obs::alloc_count() == before)
      GTEST_SKIP() << "the allocation hook is not counting";
  }
  void TearDown() override { obs::set_enabled(was_enabled_); }

  template <class Fn>
  static std::uint64_t allocations(Fn&& fn) {
    const std::uint64_t before = obs::alloc_count();
    fn();
    return obs::alloc_count() - before;
  }

 private:
  bool was_enabled_ = false;
};

std::shared_ptr<const MeshTopology> mesh(std::uint32_t side) {
  return std::make_shared<const MeshTopology>(make_mesh({side, side}));
}

TEST_F(AllocBudget, MeshRandomFunctionIsBoundedPerPath) {
  const auto topo = mesh(32);
  Rng warm_rng(1);
  (void)mesh_random_function(topo, warm_rng);  // grow thread-local scratch
  for (std::uint64_t seed = 2; seed < 5; ++seed) {
    Rng rng(seed);
    std::uint32_t paths = 0;
    const std::uint64_t allocs = allocations([&] {
      const PathCollection c = mesh_random_function(topo, rng);
      paths = c.size();
    });
    ASSERT_EQ(paths, 32u * 32u);
    EXPECT_LE(allocs, kAllocsPerPath * paths) << "seed " << seed;
  }
}

TEST_F(AllocBudget, PathCongestionIsConstantPerCall) {
  for (const std::uint32_t side : {8u, 32u}) {
    Rng rng(side);
    const PathCollection c = mesh_random_function(mesh(side), rng);
    std::uint32_t first = 0;
    EXPECT_LE(allocations([&] { first = c.path_congestion(); }),
              kAllocsPerCongestion)
        << side << "x" << side;
    EXPECT_EQ(allocations([&] { EXPECT_EQ(c.path_congestion(), first); }),
              0u)
        << "cached C̃ reread allocates";
    EXPECT_LE(allocations([&] { (void)c.path_congestions(); }),
              kAllocsPerCongestion);
    EXPECT_LE(allocations([&] { (void)c.path_congestion_sampled(16, 3); }),
              kAllocsPerCongestion);
    std::vector<PathId> half;
    for (PathId id = 0; id < c.size(); id += 2) half.push_back(id);
    EXPECT_LE(allocations([&] { (void)c.path_congestion_of(half); }),
              kAllocsPerCongestion);
  }
}

TEST_F(AllocBudget, CongestionCacheNotCarriedByCopyOrMoveConstruction) {
  auto graph = std::make_shared<Graph>(3);
  graph->add_edge(0, 1);
  graph->add_edge(1, 2);
  PathCollection original(graph);
  for (int i = 0; i < 4; ++i)
    original.add(Path::from_nodes(*graph, std::vector<NodeId>{0, 1, 2}));
  ASSERT_EQ(original.path_congestion(), 3u);
  EXPECT_EQ(allocations([&] { (void)original.path_congestion(); }), 0u)
      << "cached C̃ reread allocates";

  // A fresh cache recomputes (allocates its inversion) on the first read.
  PathCollection copy(original);
  EXPECT_GT(allocations([&] { EXPECT_EQ(copy.path_congestion(), 3u); }), 0u);
  PathCollection moved(std::move(copy));
  EXPECT_GT(allocations([&] { EXPECT_EQ(moved.path_congestion(), 3u); }), 0u);
  // The moved-from collection holds no paths and no stale C̃.
  EXPECT_EQ(copy.path_congestion(), 0u);  // NOLINT(bugprone-use-after-move)
}

}  // namespace
}  // namespace opto
