// E17 — streaming traffic engine: open arrivals over rolling
// Trial-and-Failure batches (DESIGN.md §8).
//
// Every request pays the full distributed setup: it joins the next
// protocol round, contends for wavelengths, retries after losses, and
// holds capacity only once its worm round-trips (E14 runs the [34]
// blocking curves on this same engine). Reproduced shape:
//   * measured blocking on a single link matches Erlang B (M/M/B/B) —
//     the engine's loss-call-cleared admission is calibrated against
//     closed-form teletraffic theory,
//   * blocking grows with offered load; wavelength conversion lowers it
//     (the open-workload counterpart of E9/E14),
//   * setup-latency quantiles (in rounds) grow with load as contention
//     forces retries.
//
// Every cell is examples/e17_streaming_engine.opto (ring-8, B=4, rate 32,
// rounds every 0.02, 60000 arrivals, seed 99) with the swept fields
// overridden: the rate and the conversion mode on the ring, and for the
// Erlang-B check a single link at B=8 with finer rounds, more arrivals
// and seed 42.
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "opto/dsl/runner.hpp"
#include "opto/util/table.hpp"

namespace {

/// Erlang-B loss probability via the stable recurrence
/// E_k = rho·E_{k-1} / (k + rho·E_{k-1}).
double erlang_b(double rho, int b) {
  double e = 1.0;
  for (int k = 1; k <= b; ++k) e = rho * e / (k + rho * e);
  return e;
}

}  // namespace

int main() {
  using namespace opto;
  using namespace opto::bench;

  const dsl::ScenarioSpec anchor = load_example("e17_streaming_engine");
  print_experiment_banner(
      "E17: streaming traffic engine (open arrivals, rolling batches)",
      "Erlang-B cross-check; blocking vs load with and without conversion");

  {
    // Two nodes, one fiber: each direction is an independent M/M/B/B
    // system at half the total arrival rate.
    dsl::ScenarioSpec cell = anchor;
    cell.topology = dsl::TopologySpec{};
    cell.topology.family = "single_link";
    cell.protocol.bandwidth = 8;
    cell.engine.round_interval = 0.01;  // decision delay << holding time
    cell.engine.arrivals = 200000;
    cell.engine.record = false;
    cell.seed = 42;
    const auto graph = dsl::build_graph(cell.topology);

    Table table("single link, Erlang-B cross-check, B=8");
    table.set_header({"offered rho", "measured", "Erlang B", "rel err"});
    for (const double rho : {2.0, 4.0, 6.0}) {
      cell.engine.rate = 2.0 * rho;
      Engine engine(graph, dsl::make_engine_config(cell), cell.seed);
      const auto result = engine.run();
      const double analytic = erlang_b(rho, 8);
      auto row = table.row();
      row.cell(rho)
          .cell(result.blocking_probability)
          .cell(analytic)
          .cell(std::fabs(result.blocking_probability - analytic) / analytic);
    }
    print_experiment_table(table);
  }

  {
    dsl::ScenarioSpec cell = anchor;
    const auto ring = dsl::build_graph(cell.topology);
    Table table("ring-8, B=4, Poisson arrivals");
    table.set_header({"rate", "blocking (no conv)", "blocking (conv)",
                      "p50 rounds", "p99 rounds", "peak active"});
    for (const double rate : {8.0, 16.0, 32.0, 64.0}) {
      cell.engine.rate = rate;
      // One representative operating point publishes its gauges into the
      // BenchRecord (set_metric is last-write-wins, so exactly one row
      // records).
      cell.engine.record = rate == 32.0;
      Engine plain(ring, dsl::make_engine_config(cell), cell.seed);
      const auto base = plain.run();

      dsl::ScenarioSpec converting = cell;
      converting.engine.record = false;
      converting.protocol.conversion = "full";
      Engine conv(ring, dsl::make_engine_config(converting), cell.seed);
      const auto with = conv.run();

      auto row = table.row();
      row.cell(rate)
          .cell(base.blocking_probability)
          .cell(with.blocking_probability)
          .cell(base.p50_setup_rounds)
          .cell(base.p99_setup_rounds)
          .cell(base.peak_active);
    }
    print_experiment_table(table);
  }

  std::cout << "Expected shape: single-link blocking within a few percent of"
               " Erlang B;\nblocking monotone in load; conversion lowers"
               " blocking at light-to-moderate\nload (deep saturation blocks"
               " either way); setup-round quantiles grow with\nload.\n";
  return 0;
}
