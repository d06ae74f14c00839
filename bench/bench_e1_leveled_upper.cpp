// E1 — Main Theorem 1.1 (upper bound), leveled collections.
//
// Paper claim: on a leveled path collection, serve-first routers route all
// worms in T = O(√(log_α n) + loglog_β n) rounds and
// O(L·C̃/B + T(D + L + L·log n/B)) time, w.h.p.
//
// We route random permutations input→output on butterflies of growing
// dimension (the canonical leveled system) and report measured rounds and
// charged time next to the closed-form shapes. The expected signature:
// rounds grow extremely slowly with n and time stays within a constant
// factor of the bound. Every cell is examples/e1_leveled_upper.opto with
// dim, B and L swept (and 10 trials from dim 8 on).
#include <iostream>

#include "bench_common.hpp"
#include "opto/analysis/bounds.hpp"
#include "opto/dsl/runner.hpp"
#include "opto/util/table.hpp"

int main() {
  using namespace opto;
  using namespace opto::bench;

  const dsl::ScenarioSpec anchor = load_example("e1_leveled_upper");
  print_experiment_banner(
      "E1: Main Thm 1.1 upper bound (leveled, serve-first)",
      "rounds ~ sqrt(log_a n) + loglog_b n; time ~ LC/B + T(D+L+Llog n/B)");

  for (const std::uint16_t bandwidth : {1, 4}) {
    for (const std::uint32_t L : {1u, 8u}) {
      Table table("butterfly permutations, B=" + std::to_string(bandwidth) +
                  ", L=" + std::to_string(L));
      table.set_header({"dim", "n", "C", "rounds mean", "rounds p95",
                        "T bound", "charged mean", "time bound",
                        "time/bound"});
      for (const std::uint32_t dim : {4u, 5u, 6u, 7u, 8u, 9u}) {
        dsl::ScenarioSpec cell = anchor;
        cell.topology.dim = dim;
        cell.protocol.bandwidth = bandwidth;
        cell.protocol.worm_length = L;
        if (dim >= 8) cell.trials = 10;
        const auto aggregate = run_trials(
            dsl::make_factory(cell), dsl::make_schedule(cell),
            dsl::make_protocol(cell), scaled_trials(cell.trials), cell.seed);

        ProblemShape shape;
        shape.size = 1u << dim;
        shape.dilation = dim;
        shape.path_congestion =
            static_cast<std::uint32_t>(aggregate.path_congestion.mean());
        shape.worm_length = L;
        shape.bandwidth = bandwidth;

        table.row()
            .cell(dim)
            .cell(static_cast<long long>(1u << dim))
            .cell(aggregate.path_congestion.mean())
            .cell(aggregate.rounds.mean())
            .cell(aggregate.rounds.quantile(0.95))
            .cell(rounds_leveled(shape))
            .cell(aggregate.charged_time.mean())
            .cell(runtime_leveled(shape))
            .cell(aggregate.charged_time.mean() / runtime_leveled(shape));
      }
      print_experiment_table(table);
    }
  }
  std::cout << "Expected shape: 'rounds mean' nearly flat in n (double-log /"
               " sqrt-log growth);\n'time/bound' roughly constant across"
               " rows.\n";
  return 0;
}
