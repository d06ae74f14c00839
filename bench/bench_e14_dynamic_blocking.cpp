// E14 — dynamic-traffic blocking probability (Ramaswami–Sivarajan [34],
// from the paper's related work §1.2).
//
// Connections arrive at random and hold lightpaths; a request is blocked
// when no wavelength is available along its route. The traffic runs on
// the streaming engine (E17, DESIGN.md §8): Poisson arrivals, exponential
// holding (mean 1, so the arrival rate is the offered load in Erlangs),
// canonical BFS routes, first-fit, loss-call-cleared admission. Rounds
// run every 0.01 time units, so the setup delay stays much smaller than
// the holding time. Reproduced claims:
//   * blocking grows with offered load,
//   * wavelength conversion lowers blocking at light-to-moderate load
//     (continuity constraint dropped) — the dynamic-traffic counterpart
//     of E9; deep saturation blocks either way,
//   * the conversion gain is larger for long routes (more links must
//     agree on one wavelength).
#include <iostream>
#include <memory>

#include "bench_common.hpp"
#include "opto/engine/engine.hpp"
#include "opto/graph/mesh.hpp"
#include "opto/graph/ring.hpp"
#include "opto/util/table.hpp"

int main() {
  using namespace opto;
  using namespace opto::bench;

  print_experiment_banner(
      "E14: dynamic RWA blocking probability ([34] setting)",
      "blocking vs load, with and without wavelength conversion");

  struct Network {
    std::string name;
    std::shared_ptr<const Graph> graph;
  };
  const Network networks[] = {
      {"ring-16 (long routes)", std::make_shared<Graph>(make_ring(16))},
      {"torus-5x5 (short routes)",
       std::make_shared<Graph>(make_torus({5, 5}).graph)},
  };

  for (const auto& network : networks) {
    Table table(network.name + ", B=8");
    table.set_header({"offered load", "blocking (no conv)",
                      "blocking (conv)", "conv gain", "mean route"});
    for (const double load : {8.0, 16.0, 32.0, 64.0, 128.0}) {
      EngineConfig config;
      config.protocol.bandwidth = 8;
      config.traffic.rate = load;  // mean holding time 1: rate = Erlangs
      config.round_interval = 0.01;
      config.arrivals = scaled_trials(40000);
      config.warmup = config.arrivals / 8;

      Engine plain_engine(network.graph, config, 17);
      const auto plain = plain_engine.run();
      config.protocol.conversion = ConversionMode::Full;
      Engine converting(network.graph, config, 17);
      const auto converted = converting.run();

      // Requests pick uniform ordered pairs, so the mean route is the
      // mean over the engine's one-route-per-pair table.
      const double mean_route = plain_engine.routes().stats().avg_length;

      // Conversion gain is a ratio: with zero converted blocking it is
      // unbounded ("inf" when plain still blocks) or undefined ("n/a"
      // when neither arm blocks) — printing 0.0 would read as a
      // conversion *loss*.
      auto row = table.row();
      row.cell(load)
          .cell(plain.blocking_probability)
          .cell(converted.blocking_probability);
      if (converted.blocking_probability > 0)
        row.cell(plain.blocking_probability / converted.blocking_probability);
      else
        row.cell(plain.blocking_probability > 0 ? "inf" : "n/a");
      row.cell(mean_route);
    }
    print_experiment_table(table);
  }
  std::cout << "Expected shape: blocking monotone in load; conversion gain"
               " > 1 at light-to-moderate\nload (inf/n-a on zero-blocking"
               " rows, where the ratio is unbounded or undefined;\ndeep"
               " saturation blocks either way) and larger on the ring (longer"
               " routes make\nwavelength continuity harder to satisfy).\n";
  return 0;
}
