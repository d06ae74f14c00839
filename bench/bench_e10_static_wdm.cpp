// E10 — baseline: static wavelength assignment (single-hop RWA, §1.2).
//
// RWA colors all paths up front (global knowledge, no retries) and ships
// ⌈colors/B⌉ collision-free batches; rwa::run_static_rwa runs it as
// First-Fit rounds of rwa::run_strategy_schedule, each path its own only
// route, in Welsh-Powell order. Trial-and-failure knows nothing
// globally and retries. Expected crossover: RWA wins when C̃ is small or
// B large (few batches); the online protocol closes in — and avoids the
// global-coordination requirement entirely — as congestion and network
// size grow.
#include <iostream>
#include <memory>

#include "bench_common.hpp"
#include "opto/graph/butterfly.hpp"
#include "opto/graph/mesh.hpp"
#include "opto/paths/butterfly_paths.hpp"
#include "opto/paths/workloads.hpp"
#include "opto/rwa/schedule.hpp"
#include "opto/util/table.hpp"

int main() {
  using namespace opto;
  using namespace opto::bench;

  print_experiment_banner(
      "E10: trial-and-failure vs static RWA baseline",
      "online randomized protocol vs offline coloring batches");

  const std::uint32_t L = 4;

  struct Workload {
    std::string name;
    CollectionFactory factory;
  };
  const std::vector<Workload> workloads{
      {"mesh 8x8 random fn",
       [](std::uint64_t seed) {
         auto topo = std::make_shared<MeshTopology>(make_mesh({8, 8}));
         Rng rng(seed);
         return mesh_random_function(topo, rng);
       }},
      {"butterfly dim 6, q=4",
       [](std::uint64_t seed) {
         auto topo = std::make_shared<ButterflyTopology>(make_butterfly(6));
         Rng rng(seed);
         return butterfly_random_q_function(topo, 4, rng);
       }},
  };

  for (const auto& workload : workloads) {
    Table table(workload.name);
    table.set_header({"B", "TaF rounds", "TaF time", "RWA colors",
                      "RWA batches", "RWA time", "TaF/RWA time"});
    for (const std::uint16_t B : {1, 2, 4, 8}) {
      ProtocolConfig config;
      config.bandwidth = B;
      config.worm_length = L;
      config.max_rounds = 5000;
      const auto online = run_trials(workload.factory,
                                     paper_schedule_factory(L, B), config,
                                     scaled_trials(10), 171);

      // RWA on a fixed representative instance (the baseline is
      // deterministic given the collection).
      const auto collection = workload.factory(4242);
      const auto rwa = rwa::run_static_rwa(collection, B, L);
      table.row()
          .cell(static_cast<long long>(B))
          .cell(online.rounds.mean())
          .cell(online.charged_time.mean())
          .cell(rwa.colors)
          .cell(rwa.batches)
          .cell(static_cast<long long>(rwa.total_time))
          .cell(online.charged_time.mean() /
                static_cast<double>(std::max<SimTime>(1, rwa.total_time)));
    }
    print_experiment_table(table);
  }
  std::cout << "Expected shape: RWA's time ~ batches*(D+L) and shrinks 1/B;"
               " the online protocol\npays a constant-factor premium for"
               " needing zero global knowledge.\n";
  return 0;
}
