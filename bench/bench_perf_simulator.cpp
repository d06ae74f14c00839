// Engine micro-benchmarks (google-benchmark): simulator throughput,
// collection-metric computation, and structure construction.
#include <benchmark/benchmark.h>

#include <memory>
#include <numeric>
#include <vector>

#include "opto/obs/bench_record.hpp"
#include "opto/graph/butterfly.hpp"
#include "opto/graph/fattree.hpp"
#include "opto/graph/mesh.hpp"
#include "opto/paths/lowerbound_structures.hpp"
#include "opto/paths/workloads.hpp"
#include "opto/rng/rng.hpp"
#include "opto/rwa/ksp.hpp"
#include "opto/sim/simulator.hpp"

namespace {

using namespace opto;

void BM_SimulatorMeshPass(benchmark::State& state) {
  const auto side = static_cast<std::uint32_t>(state.range(0));
  auto topo = std::make_shared<MeshTopology>(make_mesh({side, side}));
  Rng rng(1);
  const auto collection = mesh_random_function(topo, rng);

  SimConfig config;
  config.bandwidth = 2;
  Simulator sim(collection, config);

  std::vector<LaunchSpec> specs(collection.size());
  Rng launch_rng(2);
  for (PathId id = 0; id < collection.size(); ++id) {
    specs[id].path = id;
    specs[id].start_time = static_cast<SimTime>(launch_rng.next_below(32));
    specs[id].wavelength =
        static_cast<Wavelength>(launch_rng.next_below(2));
    specs[id].length = 8;
    specs[id].priority = id;
  }
  // Reuse one PassResult across iterations: this is the steady-state mode
  // the protocol drivers run in (zero allocation per pass).
  PassResult result;
  std::uint64_t worm_steps = 0;
  for (auto _ : state) {
    sim.run(specs, result);
    worm_steps += result.metrics.worm_steps;
    benchmark::DoNotOptimize(result.metrics.delivered);
  }
  state.counters["worm_steps/s"] = benchmark::Counter(
      static_cast<double>(worm_steps), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulatorMeshPass)->Arg(8)->Arg(16)->Arg(32);

/// High-contention pass: a saturated mesh under the priority rule, long
/// worms, wide startup window — many truncations, long drains, and a
/// registry that stays hot. This is the acceptance workload for registry
/// and pass-state optimizations; probes/hits expose registry behavior.
void BM_SimulatorStressPass(benchmark::State& state) {
  const auto side = static_cast<std::uint32_t>(state.range(0));
  auto topo = std::make_shared<MeshTopology>(make_mesh({side, side}));
  Rng rng(7);
  const auto collection = mesh_random_function(topo, rng);

  SimConfig config;
  config.bandwidth = 2;
  config.rule = ContentionRule::Priority;
  Simulator sim(collection, config);

  std::vector<LaunchSpec> specs(collection.size());
  Rng launch_rng(8);
  for (PathId id = 0; id < collection.size(); ++id) {
    specs[id].path = id;
    specs[id].start_time = static_cast<SimTime>(launch_rng.next_below(16));
    specs[id].wavelength =
        static_cast<Wavelength>(launch_rng.next_below(2));
    specs[id].length = 24;
    specs[id].priority = id;  // pairwise distinct, as the rule requires
  }
  PassResult result;
  std::uint64_t worm_steps = 0;
  for (auto _ : state) {
    sim.run(specs, result);
    worm_steps += result.metrics.worm_steps;
    benchmark::DoNotOptimize(result.metrics.truncated);
  }
  state.counters["worm_steps/s"] = benchmark::Counter(
      static_cast<double>(worm_steps), benchmark::Counter::kIsRate);
  state.counters["registry_probes"] =
      static_cast<double>(result.metrics.registry_probes);
  state.counters["registry_hits"] =
      static_cast<double>(result.metrics.registry_hits);
}
BENCHMARK(BM_SimulatorStressPass)->Arg(16)->Arg(32);

void BM_SimulatorBundleContention(benchmark::State& state) {
  const auto width = static_cast<std::uint32_t>(state.range(0));
  const auto collection = make_bundle_collection(1, width, 16);
  Simulator sim(collection, {});
  std::vector<LaunchSpec> specs(width);
  Rng rng(3);
  for (PathId id = 0; id < width; ++id) {
    specs[id].path = id;
    specs[id].start_time = static_cast<SimTime>(rng.next_below(64));
    specs[id].wavelength = 0;
    specs[id].length = 8;
    specs[id].priority = id;
  }
  PassResult result;
  for (auto _ : state) {
    sim.run(specs, result);
    benchmark::DoNotOptimize(result.metrics.killed);
  }
}
BENCHMARK(BM_SimulatorBundleContention)->Arg(64)->Arg(512)->Arg(4096);

/// C̃ of one instance, computed afresh every iteration: path_congestion_of
/// over every id is not memoized, where path_congestion() would only read
/// its memo after the first. The instance is a q = 4 function on the
/// dimension-`size` butterfly (mesh 0) or a random function on the
/// size×size mesh (mesh 1; E7's instance at size 32).
void BM_PathCongestionMetric(benchmark::State& state) {
  const auto size = static_cast<std::uint32_t>(state.range(1));
  Rng rng(4);
  const PathCollection collection =
      state.range(0) == 0
          ? butterfly_random_q_function(
                std::make_shared<ButterflyTopology>(make_butterfly(size)), 4,
                rng)
          : mesh_random_function(
                std::make_shared<MeshTopology>(make_mesh({size, size})), rng);
  std::vector<PathId> ids(collection.size());
  std::iota(ids.begin(), ids.end(), PathId{0});
  for (auto _ : state) {
    benchmark::DoNotOptimize(collection.path_congestion_of(ids));
  }
  state.counters["paths"] = static_cast<double>(collection.size());
}
BENCHMARK(BM_PathCongestionMetric)
    ->ArgNames({"mesh", "size"})
    ->Args({0, 5})
    ->Args({0, 7})
    ->Args({0, 9})
    ->Args({1, 32});

/// k = 3 shortest routes for every ordered node pair of the radix-8 fat
/// tree (dc_rwa's graph and k), into one reused route list. Warm (cold
/// 0): one hop table, every row filled before timing. Cold (cold 1): a
/// fresh table per iteration, so each destination's first search also
/// fills its row.
void BM_KShortestRoutes(benchmark::State& state) {
  const bool cold = state.range(0) != 0;
  const Graph graph = make_fat_tree(8).graph;
  const NodeId nodes = graph.node_count();
  rwa::RouteList routes;
  const auto search_all = [&](const rwa::HopTable& table) {
    std::uint64_t found = 0;
    for (NodeId s = 0; s < nodes; ++s)
      for (NodeId d = 0; d < nodes; ++d) {
        routes.clear();
        found += rwa::k_shortest_routes(table, s, d, 3, routes);
      }
    return found;
  };
  const rwa::HopTable warm(graph);
  (void)search_all(warm);
  std::uint64_t found = 0;
  for (auto _ : state) {
    if (cold) {
      const rwa::HopTable table(graph);
      found += search_all(table);
    } else {
      found += search_all(warm);
    }
  }
  benchmark::DoNotOptimize(found);
  state.counters["routes/s"] = benchmark::Counter(
      static_cast<double>(found), benchmark::Counter::kIsRate);
  state.counters["pairs"] = static_cast<double>(nodes) * nodes;
}
BENCHMARK(BM_KShortestRoutes)->ArgName("cold")->Arg(0)->Arg(1);

void BM_StaircaseConstruction(benchmark::State& state) {
  const auto structures = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    const auto collection = make_staircase_collection(structures, 6, 16, 4);
    benchmark::DoNotOptimize(collection.size());
  }
}
BENCHMARK(BM_StaircaseConstruction)->Arg(16)->Arg(256);

void BM_MeshWorkloadBuild(benchmark::State& state) {
  const auto side = static_cast<std::uint32_t>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    auto topo = std::make_shared<MeshTopology>(make_mesh({side, side}));
    Rng rng(seed++);
    const auto collection = mesh_random_function(topo, rng);
    benchmark::DoNotOptimize(collection.size());
  }
}
BENCHMARK(BM_MeshWorkloadBuild)->Arg(16)->Arg(64);

}  // namespace

// Custom main (instead of benchmark::benchmark_main) so the obs
// counters accumulated across all benchmark iterations land in a
// BenchRecord alongside the experiment benches' records.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  opto::obs::write_bench_record_file("perf-simulator");
  return 0;
}
