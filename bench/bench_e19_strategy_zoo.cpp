// E19 — strategy zoo: pluggable static RWA strategies vs the online
// Trial-and-Failure protocol, head-to-head on data-center topologies.
//
// Contestants, per topology (radix-4 fat tree, BCube(4,2)):
//   greedy static — Welsh-Powell coloring + batch shipping (E10's
//                   baseline, global knowledge, no retries)
//   trial & failure — the paper's online randomized protocol
//   first_fit / least_used / random_fit over k-shortest-path candidates,
//   multipath splitting, and Valiant oblivious routing — the rwa/
//   strategy layer, driven round-by-round like Trial-and-Failure.
//
// All rows share per-trial instance seeds (run_strategy_trials derives
// them exactly like run_trials), so trial t of every contestant routes
// the same permutation. Expected shape: strategies with candidate
// diversity (least_used, multipath) block less than first_fit at equal
// B; Valiant trades longer routes for load spreading; Trial-and-Failure
// needs no global view but pays rounds for it.
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "opto/graph/bcube.hpp"
#include "opto/graph/fattree.hpp"
#include "opto/obs/obs.hpp"
#include "opto/paths/bfs_shortest.hpp"
#include "opto/paths/workloads.hpp"
#include "opto/rwa/schedule.hpp"
#include "opto/util/table.hpp"

int main() {
  using namespace opto;
  using namespace opto::bench;

  print_experiment_banner(
      "E19: strategy zoo vs trial-and-failure",
      "static RWA strategies (KSP + FF/LU/RF, multipath, Valiant) vs the "
      "online protocol on fat-tree and BCube");

  const std::uint16_t B = 2;
  const std::uint32_t L = 4;
  const std::uint32_t kCandidates = 3;
  const std::uint64_t kSeed = 191;
  const std::size_t trials = scaled_trials(30);

  struct Arena {
    std::string name;
    std::string slug;
    std::shared_ptr<const Graph> graph;
  };
  const std::vector<Arena> arenas{
      {"fat tree radix 4", "fattree4",
       std::make_shared<Graph>(std::move(make_fat_tree(4).graph))},
      {"BCube(4, 2)", "bcube42",
       std::make_shared<Graph>(std::move(make_bcube(4, 2).graph))},
  };

  for (const Arena& arena : arenas) {
    const auto graph = arena.graph;
    const std::uint32_t n = graph->node_count();

    // Shared per-trial instance: a random node permutation (the same
    // Rng draw the DSL bfs/permutation factory makes).
    const rwa::InstanceFactory instances = [graph, n](std::uint64_t seed) {
      Rng rng(seed);
      const auto perm = random_permutation(n, rng);
      std::vector<rwa::RwaRequest> requests;
      requests.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i)
        requests.push_back(rwa::RwaRequest{i, perm[i]});
      return std::make_pair(graph, std::move(requests));
    };
    const CollectionFactory paths_factory = [graph](std::uint64_t seed) {
      Rng rng(seed);
      return bfs_random_permutation(graph, rng);
    };

    Table table(arena.name + " — permutation, B=" + std::to_string(B) +
                ", L=" + std::to_string(L));
    table.set_header({"contestant", "success", "blocking", "rounds",
                      "makespan", "colors"});
    const auto metric = [&](const char* contestant, const char* field,
                            double value) {
      obs::set_metric(arena.slug + std::string(".") + contestant + "." + field,
                      value);
    };

    // Greedy static coloring on the fixed representative instance
    // (deterministic given the collection, E10's convention).
    const auto collection = paths_factory(4242);
    const auto wdm = rwa::run_static_rwa(collection, B, L);
    table.row()
        .cell("greedy static")
        .cell(wdm.success ? 1.0 : 0.0)
        .cell(0.0)
        .cell(static_cast<long long>(wdm.batches))
        .cell(static_cast<long long>(wdm.total_time))
        .cell(static_cast<long long>(wdm.colors));
    metric("greedy_static", "rounds", wdm.batches);
    metric("greedy_static", "makespan", static_cast<double>(wdm.total_time));

    // Trial-and-Failure over the same instances (BFS routes, paper Δ).
    ProtocolConfig config;
    config.bandwidth = B;
    config.worm_length = L;
    config.max_rounds = 2000;
    const auto taf = run_trials(paths_factory, paper_schedule_factory(L, B),
                                config, trials, kSeed);
    table.row()
        .cell("trial & failure")
        .cell(taf.success_rate())
        .cell(0.0)
        .cell(taf.rounds.mean())
        .cell(taf.actual_time.mean())
        .cell(static_cast<long long>(B));
    metric("trial_and_failure", "rounds", taf.rounds.mean());
    metric("trial_and_failure", "makespan", taf.actual_time.mean());

    // The zoo.
    rwa::StrategyScheduleConfig zoo;
    zoo.rwa.bandwidth = B;
    zoo.rwa.candidates = kCandidates;
    zoo.rwa.split_ways = 2;
    zoo.worm_length = L;
    zoo.max_rounds = 64;
    for (const rwa::StrategyKind kind : rwa::all_strategy_kinds()) {
      const auto agg =
          rwa::run_strategy_trials(instances, kind, zoo, trials, kSeed);
      table.row()
          .cell(rwa::to_string(kind))
          .cell(agg.success_rate())
          .cell(agg.blocking.mean())
          .cell(agg.rounds.mean())
          .cell(agg.makespan.mean())
          .cell(agg.colors.mean());
      metric(rwa::to_string(kind), "blocking", agg.blocking.mean());
      metric(rwa::to_string(kind), "rounds", agg.rounds.mean());
      metric(rwa::to_string(kind), "makespan", agg.makespan.mean());
    }
    print_experiment_table(table);
  }

  std::cout << "Expected shape: candidate diversity (least_used, multipath)"
               " blocks less than\nfirst_fit at equal B; Valiant spreads load"
               " at the cost of longer routes;\ntrial-and-failure pays rounds"
               " for needing zero global knowledge.\n";
  return 0;
}
