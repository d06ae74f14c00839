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
//
// Every cell is examples/e19_strategy_zoo.opto (radix-4 fat tree, bfs
// permutations, B=2, L=4, k=3, 64 rounds) with the swept fields
// overridden: BCube(4, 2) as the second arena, seed 191 (the example
// file runs seed 19), the strategy kind, and 2000 rounds under the
// paper's Δ-schedule for Trial-and-Failure.
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "opto/dsl/runner.hpp"
#include "opto/obs/obs.hpp"
#include "opto/util/table.hpp"

int main() {
  using namespace opto;
  using namespace opto::bench;

  const dsl::ScenarioSpec anchor = load_example("e19_strategy_zoo");
  print_experiment_banner(
      "E19: strategy zoo vs trial-and-failure",
      "static RWA strategies (KSP + FF/LU/RF, multipath, Valiant) vs the "
      "online protocol on fat-tree and BCube");

  struct Arena {
    std::string name;
    std::string slug;
    dsl::TopologySpec topology;
  };
  dsl::TopologySpec bcube;
  bcube.family = "bcube";
  bcube.ports = 4;
  bcube.levels = 2;
  const std::vector<Arena> arenas{
      {"fat tree radix 4", "fattree4", anchor.topology},
      {"BCube(4, 2)", "bcube42", bcube},
  };

  for (const Arena& arena : arenas) {
    dsl::ScenarioSpec cell = anchor;
    cell.topology = arena.topology;
    cell.seed = 191;
    const std::uint16_t B = static_cast<std::uint16_t>(cell.protocol.bandwidth);
    const std::uint32_t L = cell.protocol.worm_length;
    const std::size_t trials = scaled_trials(cell.trials);

    // Shared per-trial instance: a random node permutation, drawn alike
    // by the strategies' instance factory and the protocol's path factory.
    const rwa::InstanceFactory instances = dsl::make_instance_factory(cell);
    const CollectionFactory paths_factory = dsl::make_factory(cell);

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
    dsl::ScenarioSpec protocol_cell = cell;
    protocol_cell.protocol.max_rounds = 2000;
    const auto taf = run_trials(paths_factory,
                                dsl::make_schedule(protocol_cell),
                                dsl::make_protocol(protocol_cell), trials,
                                cell.seed);
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
    for (const rwa::StrategyKind kind : rwa::all_strategy_kinds()) {
      cell.strategy.kind = rwa::to_string(kind);
      const auto agg = rwa::run_strategy_trials(
          instances, kind, dsl::make_strategy_config(cell), trials, cell.seed);
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
