// Allocation budgets for the per-trial instance pipeline (building a
// mesh and a random function on it, measuring its C̃, one whole E7
// trial), for RWA route search and the strategy round driver, and for a
// steady-state protocol round. Counted with the obs allocation hook, so
// a per-node vector in graph/, a per-path or per-link vector, or a
// per-search BFS buffer creeping back into paths/ or rwa/ fails here
// rather than only in a benchmark profile. The same count shows whether
// a collection's C̃ is memoized: a memo hit allocates nothing, a
// computation allocates its arrays.
// Skipped when observation is compiled out (OPTO_OBS_ENABLED=0), where
// the hook counts nothing.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <new>
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
#include "opto/rwa/schedule.hpp"
#include "opto/rwa/strategy.hpp"

namespace opto {
namespace {

// One dimension-order random function, whatever its size: the function
// and its request list, the member records, and the link arena's growth
// (log2 of the links). Allocating per path (the parent design paid ~8.7
// each) fails at either size.
constexpr std::uint64_t kAllocsPerMeshCollection = 24;
// One make_mesh at any side: the side vector, the link targets, the CSR
// row offsets and links, and the coordinate cursor (5). The per-node
// adjacency vectors the graph used to keep cost 3,086 at side 32.
constexpr std::uint64_t kAllocsPerMeshBuild = 5;
// One E7 trial: make_mesh (5), the collection, the schedule, and a
// protocol run; measured 151 and 153 at seeds 2 and 3.
constexpr std::uint64_t kAllocsPerMeshTrial = 160;
// One C̃ computation, independent of the collection's size: the
// bound-and-verify kernel's three arrays (out-row positions, loads and
// turns reused as stamps, the bounds), or path_congestions()'s four (the
// result, a stamp per member, each link's first user, the users).
// Measured 3, 4 and 3 for path_congestion(), path_congestions() and
// path_congestion_of() at sides 8 and 32.
constexpr std::uint64_t kAllocsPerCongestion = 4;
// k=3 shortest routes between two radix-8 fat-tree hosts in different
// pods into a new route list: its link and route-end arrays, each grown
// once, and nothing else — the routes are read off the destination's
// row, which lives in the graph's hop table, filled in place, and the
// fallback BFS and the candidate list live in the thread's search
// workspace. Into a list that has grown before, a search allocates
// nothing.
constexpr std::uint64_t kAllocsPerKsp = 2;
// run_strategy_schedule, per request, once its strategy, the search
// workspace and the hop rows are warm: each accepted decision's route and
// wavelength vectors (2), plus each round's collection, launch specs and
// simulated pass over the radix-4 fat tree's 36 requests. Measured 4.1–4.7
// for the single-route kinds and multipath, 5.4–6.1 for Valiant (2–4
// rounds).
constexpr std::uint64_t kAllocsPerRwaRequest = 7;

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

TEST_F(AllocBudget, MakeMeshIsBounded) {
  // The mesh writes its links straight into the CSR arrays: no per-node
  // allocation, so the count does not grow with the side.
  for (const std::uint32_t side : {8u, 32u}) {
    std::uint64_t nodes = 0;
    const std::uint64_t allocs = allocations([&] {
      const MeshTopology topo = make_mesh({side, side});
      nodes = topo.graph.node_count();
    });
    ASSERT_EQ(nodes, std::uint64_t{side} * side);
    EXPECT_LE(allocs, kAllocsPerMeshBuild) << side << "x" << side;
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
    std::vector<PathId> half;
    for (PathId id = 0; id < c.size(); id += 2) half.push_back(id);
    EXPECT_LE(allocations([&] { (void)c.path_congestion_of(half); }),
              kAllocsPerCongestion);
  }
}

TEST_F(AllocBudget, CongestionMemoTravelsWithCopiesAndMoves) {
  GraphBuilder builder(3);
  builder.add_edge(0, 1);
  builder.add_edge(1, 2);
  auto graph = std::make_shared<Graph>(std::move(builder).build());
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
  const rwa::HopTable table(topo.graph);
  // The first calls grow the thread's search workspace and fill the
  // destination's row; k = 20 passes the pair's 16 shortest routes, so
  // Yen's candidate arena grows too.
  rwa::RouteList routes;
  (void)rwa::k_shortest_routes(table, source, destination, 20, routes);
  for (const std::uint32_t k : {3u, 20u}) {
    routes.clear();
    std::uint32_t found = 0;
    EXPECT_EQ(allocations([&] {
                found = rwa::k_shortest_routes(table, source, destination, k,
                                               routes);
              }),
              0u)
        << "k=" << k << ": a search into a grown list allocates";
    EXPECT_EQ(found, k);
  }
  std::vector<EdgeId> links;
  (void)rwa::shortest_route(table, source, destination, links);
  (void)rwa::shortest_route(table, source, destination);
  links.clear();
  EXPECT_EQ(allocations([&] {
              EXPECT_TRUE(
                  rwa::shortest_route(table, source, destination, links));
            }),
            0u);
  EXPECT_EQ(links.size(), 6u);
  EXPECT_EQ(allocations([&] {
              EXPECT_EQ(rwa::shortest_route(table, source, destination).size(),
                        7u);
            }),
            1u)
      << "shortest_route allocates more than its route";

  // Into a new list, with and without filling the destination's row.
  for (const bool cold : {false, true}) {
    const rwa::HopTable fresh(topo.graph);
    const rwa::HopTable& searched = cold ? fresh : table;
    EXPECT_LE(allocations([&] {
                rwa::RouteList fresh_routes;
                EXPECT_EQ(rwa::k_shortest_routes(searched, source,
                                                 destination, 3, fresh_routes),
                          3u);
              }),
              kAllocsPerKsp)
        << (cold ? "cold" : "warm") << " table";
  }
}

TEST_F(AllocBudget, StrategyScheduleIsBoundedPerRequest) {
  // Every strategy kind over permutations of the radix-4 fat tree's 36
  // nodes, as dc_rwa runs them at 208: the first run grows the
  // strategy's memo and the search workspace and fills the hop rows, so
  // the measured runs pay only for the rounds' collections, passes and
  // decisions.
  const auto graph =
      std::make_shared<const Graph>(make_fat_tree(4).graph);
  rwa::StrategyScheduleConfig config;
  config.rwa.bandwidth = 2;
  config.rwa.candidates = 3;
  config.rwa.split_ways = 2;
  config.worm_length = 4;
  const auto requests = [&](std::uint64_t seed) {
    Rng rng(seed);
    const std::vector<NodeId> perm =
        random_permutation(graph->node_count(), rng);
    std::vector<rwa::RwaRequest> out;
    for (NodeId i = 0; i < perm.size(); ++i) out.push_back({i, perm[i]});
    return out;
  };
  for (const rwa::StrategyKind kind : rwa::all_strategy_kinds()) {
    const auto strategy = rwa::make_strategy(kind);
    (void)rwa::run_strategy_schedule(graph, requests(1), *strategy, config);
    for (std::uint64_t seed = 2; seed < 5; ++seed) {
      const std::vector<rwa::RwaRequest> batch = requests(seed);
      rwa::StrategyRunResult run;
      const std::uint64_t allocs = allocations([&] {
        run = rwa::run_strategy_schedule(graph, batch, *strategy, config);
      });
      ASSERT_TRUE(run.success) << rwa::to_string(kind);
      EXPECT_LE(allocs, kAllocsPerRwaRequest * batch.size())
          << rwa::to_string(kind) << " seed " << seed << ": " << allocs
          << " allocations over " << run.rounds << " rounds";
    }
  }
}

/// A type whose alignment passes the default new alignment, so `new`
/// takes the std::align_val_t overloads.
struct alignas(64) CacheLine {
  unsigned char bytes[64];
};

TEST_F(AllocBudget, OverAlignedNewIsCounted) {
  static_assert(alignof(CacheLine) > __STDCPP_DEFAULT_NEW_ALIGNMENT__);
  CacheLine* volatile one = nullptr;
  CacheLine* volatile many = nullptr;
  CacheLine* volatile quiet = nullptr;
  EXPECT_EQ(allocations([&] { one = new CacheLine(); }), 1u);
  EXPECT_EQ(allocations([&] { many = new CacheLine[3](); }), 1u);
  EXPECT_EQ(allocations([&] { quiet = new (std::nothrow) CacheLine(); }), 1u);
  for (const CacheLine* p : {one, many, quiet}) {
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % alignof(CacheLine), 0u);
  }
  EXPECT_EQ(allocations([&] {
              delete one;
              delete[] many;
              delete quiet;
            }),
            0u);
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
