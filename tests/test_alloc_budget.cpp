// Allocation budgets for the per-trial instance pipeline (building a
// mesh random function, measuring its C̃, one whole E7 trial), for RWA
// route search, and for a steady-state protocol round.
// Counted with the obs allocation hook, so a per-path vector, a per-link
// vector or a per-search BFS buffer creeping back into paths/ or rwa/
// fails here rather than only in a benchmark profile. The same count
// shows whether a collection's C̃ is memoized: a memo hit allocates
// nothing, a computation allocates its arrays.
// Skipped when observation is compiled out (OPTO_OBS_ENABLED=0), where
// the hook counts nothing.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "opto/benchsupport/experiment.hpp"
#include "opto/core/schedule.hpp"
#include "opto/core/trial_and_failure.hpp"
#include "opto/graph/fattree.hpp"
#include "opto/graph/graph.hpp"
#include "opto/graph/mesh.hpp"
#include "opto/graph/ring.hpp"
#include "opto/obs/obs.hpp"
#include "opto/paths/bfs_shortest.hpp"
#include "opto/paths/workloads.hpp"
#include "opto/rng/rng.hpp"
#include "opto/rwa/ksp.hpp"

namespace opto {
namespace {

// One dimension-order random function, whatever its size: the function
// and its request list, the member records, and the link arena's growth
// (log2 of the links). Allocating per path (the parent design paid ~8.7
// each) fails at either size.
constexpr std::uint64_t kAllocsPerMeshCollection = 24;
// One E7 trial: make_mesh (3,086 at side 32, Graph's per-node adjacency),
// the collection, the schedule, and a protocol run (151).
constexpr std::uint64_t kAllocsPerMeshTrial = 3500;
// One C̃ computation: the exact kernel's five arrays, or the sampled
// estimate's inversion and marks (3) — independent of the collection's
// size.
constexpr std::uint64_t kAllocsPerCongestion = 5;
// k=3 shortest routes between two radix-8 fat-tree hosts in different
// pods: the three routes and the result vector's growth (6), plus a set
// node and a vector per distinct Yen candidate (7 for this pair; 20 in
// all). A BFS buffer allocated per spur search would add 13 or more.
constexpr std::uint64_t kAllocsPerKsp = 24;

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

TEST_F(AllocBudget, MeshRandomFunctionIsBoundedPerCollection) {
  for (const std::uint32_t side : {8u, 32u}) {
    const auto topo = mesh(side);
    Rng warm_rng(1);
    (void)mesh_random_function(topo, warm_rng);  // grow thread-local scratch
    for (std::uint64_t seed = 2; seed < 5; ++seed) {
      Rng rng(seed);
      std::uint32_t paths = 0;
      const std::uint64_t allocs = allocations([&] {
        const PathCollection c = mesh_random_function(topo, rng);
        paths = c.size();
      });
      ASSERT_EQ(paths, side * side);
      EXPECT_LE(allocs, kAllocsPerMeshCollection)
          << side << "x" << side << " seed " << seed;
    }
  }
}

TEST_F(AllocBudget, MeshTrialIsBounded) {
  // One E7 trial as the benchmark runs it: a fresh 32x32 mesh, its random
  // function, the paper schedule sized from C̃, and the protocol.
  ProtocolConfig config;
  config.bandwidth = 1;
  config.worm_length = 16;
  config.max_rounds = 2000;
  const ScheduleFactory schedule_factory =
      paper_schedule_factory(config.worm_length, config.bandwidth);
  const auto trial = [&](std::uint64_t seed) {
    auto topo = std::make_shared<const MeshTopology>(make_mesh({32, 32}));
    Rng rng(seed);
    const PathCollection c = mesh_random_function(topo, rng);
    const auto schedule = schedule_factory(c);
    TrialAndFailure protocol(c, config, *schedule);
    EXPECT_TRUE(protocol.run(seed).success);
  };
  trial(1);  // grow thread-local scratch
  for (std::uint64_t seed = 2; seed < 4; ++seed)
    EXPECT_LE(allocations([&] { trial(seed); }), kAllocsPerMeshTrial)
        << "seed " << seed;
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

TEST_F(AllocBudget, CongestionMemoTravelsWithCopiesAndMoves) {
  auto graph = std::make_shared<Graph>(3);
  graph->add_edge(0, 1);
  graph->add_edge(1, 2);
  PathCollection original(graph);
  for (int i = 0; i < 4; ++i)
    original.add(Path::from_nodes(*graph, std::vector<NodeId>{0, 1, 2}));
  // A computation allocates its arrays; a memoized read allocates nothing.
  const PathCollection unread = original;
  EXPECT_GT(allocations([&] { EXPECT_EQ(unread.path_congestion(), 3u); }),
            0u);
  ASSERT_EQ(original.path_congestion(), 3u);
  EXPECT_EQ(allocations([&] { (void)original.path_congestion(); }), 0u)
      << "memoized C̃ reread allocates";

  const PathCollection copy(original);
  EXPECT_EQ(allocations([&] { EXPECT_EQ(copy.path_congestion(), 3u); }), 0u)
      << "a copy recomputes C̃";
  PathCollection source(original);
  const PathCollection moved(std::move(source));
  EXPECT_EQ(allocations([&] { EXPECT_EQ(moved.path_congestion(), 3u); }), 0u)
      << "a move recomputes C̃";
  // The moved-from collection holds no paths and no stale C̃.
  EXPECT_EQ(source.size(), 0u);             // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(source.path_congestion(), 0u);  // NOLINT(bugprone-use-after-move)
}

TEST_F(AllocBudget, RouteSearchAllocatesOnlyItsResults) {
  const FatTreeTopology topo = make_fat_tree(8);
  const NodeId source = topo.hosts.front(), destination = topo.hosts.back();
  // The first call grows the thread's search workspace.
  (void)rwa::k_shortest_routes(topo.graph, source, destination, 3);
  std::size_t found = 0;
  const std::uint64_t ksp = allocations([&] {
    found = rwa::k_shortest_routes(topo.graph, source, destination, 3).size();
  });
  const std::uint64_t one = allocations([&] {
    EXPECT_EQ(rwa::shortest_route(topo.graph, source, destination).size(), 7u);
  });
  ASSERT_EQ(found, 3u);
  EXPECT_LE(ksp, kAllocsPerKsp);
  EXPECT_EQ(one, 1u) << "shortest_route allocates more than its route";
}

TEST_F(AllocBudget, ProtocolRoundAllocatesNothing) {
  // A streaming-engine-shaped session: ring-8 routes, B=4, a held-channel
  // mask installed once and edited between rounds, and one member
  // re-admitted per retirement so every round carries the same batch.
  // Warm-up rounds grow every buffer; after that a whole round (ranks,
  // launches, the forward pass, acks, retirement) must not allocate.
  const auto graph = std::make_shared<const Graph>(make_ring(8));
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (NodeId src = 0; src < 8; ++src)
    for (NodeId dst = 0; dst < 8; ++dst)
      if (src != dst) pairs.emplace_back(src, dst);
  const PathCollection routes = bfs_collection(graph, pairs);
  constexpr std::uint16_t kBandwidth = 4;
  constexpr std::size_t kMembers = 24;
  constexpr int kRounds = 200;
  for (const ConversionMode conversion :
       {ConversionMode::None, ConversionMode::Full}) {
    ProtocolConfig config;
    config.bandwidth = kBandwidth;
    config.conversion = conversion;
    FixedSchedule schedule(8);
    ProtocolSession session(routes, config, schedule, 11);
    std::vector<std::uint8_t> held(
        static_cast<std::size_t>(graph->link_count()) * kBandwidth, 0);
    session.set_held(held);
    PathId next = 0;
    const auto between_rounds = [&](int round) {
      while (session.active_count() < kMembers) {
        session.admit(next, next);
        next = (next + 1) % routes.size();
      }
      held[static_cast<std::size_t>(round) % held.size()] ^= 1;
    };
    for (int round = 0; round < kRounds; ++round) {
      between_rounds(round);
      (void)session.step();
    }
    std::uint64_t allocs = 0;
    for (int round = 0; round < kRounds; ++round) {
      between_rounds(round);
      allocs += allocations([&] { (void)session.step(); });
    }
    EXPECT_EQ(allocs, 0u) << "conversion " << to_string(conversion);
  }
}

}  // namespace
}  // namespace opto
