// Blocking-probability curves for dynamic circuit traffic (the [34]
// substrate): sweep the offered load on a chosen topology, with and
// without wavelength conversion, on the streaming engine with E14's
// settings (mean holding time 1, rounds every 0.01 time units).
//
//   ./blocking_curve [--topology ring|torus|hypercube] [--size 16]
//                    [--bandwidth 8] [--points 6] [--csv]
#include <climits>
#include <cstdio>
#include <iostream>
#include <memory>

#include "opto/engine/engine.hpp"
#include "opto/graph/hypercube.hpp"
#include "opto/graph/mesh.hpp"
#include "opto/graph/ring.hpp"
#include "opto/sim/occupancy.hpp"
#include "opto/util/cli.hpp"
#include "opto/util/table.hpp"

int main(int argc, char** argv) {
  using namespace opto;

  CliParser cli("blocking_curve",
                "Dynamic-traffic blocking probability vs offered load");
  const auto* topology =
      cli.add_string("topology", "ring", "ring|torus|hypercube");
  const auto* size = cli.add_int("size", 16, "nodes / side / dimension");
  const auto* bandwidth = cli.add_int("bandwidth", 8, "wavelengths");
  const auto* points = cli.add_int("points", 6, "load points (doubling)");
  const auto* arrivals = cli.add_int("arrivals", 30000, "arrivals per point");
  const auto* csv = cli.add_flag("csv", "emit CSV");
  if (!cli.parse(argc, argv)) return 1;
  if (!cli.check_range("arrivals", 1, LLONG_MAX)) return 1;

  // --size ranges: from each generator's smallest size up to the largest
  // whose route table the engine takes (route_table_fits with the
  // family's diameter): ring n/2, torus 2·⌊side/2⌋, hypercube dim.
  const auto check_size = [&](long long lo, auto nodes, auto diameter) {
    long long hi = lo;
    while (route_table_fits(static_cast<std::uint64_t>(nodes(hi + 1)),
                            static_cast<std::uint64_t>(diameter(hi + 1))))
      ++hi;
    return cli.check_range("size", lo, hi);
  };
  const auto same = [](long long n) { return n; };
  const auto half = [](long long n) { return n / 2; };
  std::shared_ptr<const Graph> graph;
  if (*topology == "ring") {
    if (!check_size(3, same, half)) return 1;
    graph = std::make_shared<Graph>(
        make_ring(static_cast<std::uint32_t>(*size)));
  } else if (*topology == "torus") {
    if (!check_size(3, [](long long s) { return s * s; },
                    [](long long s) { return 2 * (s / 2); }))
      return 1;
    graph = std::make_shared<Graph>(
        make_torus({static_cast<std::uint32_t>(*size),
                    static_cast<std::uint32_t>(*size)})
            .graph);
  } else if (*topology == "hypercube") {
    if (!check_size(1, [](long long d) { return 1LL << d; }, same)) return 1;
    graph = std::make_shared<Graph>(
        make_hypercube(static_cast<std::uint32_t>(*size)));
  } else {
    std::fprintf(stderr, "unknown topology '%s'\n", topology->c_str());
    return 1;
  }
  if (!cli.check_range("bandwidth", 1, max_bandwidth(*graph))) return 1;

  Table table(graph->name() + ", B=" + std::to_string(*bandwidth));
  table.set_header({"load (Erlang)", "blocking", "blocking w/ conversion",
                    "mean route"});
  double load = 4.0;
  for (long long point = 0; point < *points; ++point, load *= 2.0) {
    EngineConfig config;
    config.protocol.bandwidth = static_cast<std::uint16_t>(*bandwidth);
    config.traffic.rate = load;
    config.round_interval = 0.01;
    config.arrivals = static_cast<std::uint64_t>(*arrivals);
    config.warmup = config.arrivals / 8;
    Engine plain(graph, config, 33);
    const double plain_blocking = plain.run().blocking_probability;
    config.protocol.conversion = ConversionMode::Full;
    Engine converting(graph, config, 33);
    const double converted_blocking = converting.run().blocking_probability;
    table.row()
        .cell(load)
        .cell(plain_blocking)
        .cell(converted_blocking)
        .cell(plain.routes().stats().avg_length);
  }
  if (*csv)
    table.print_csv(std::cout);
  else
    table.print(std::cout);
  std::printf(
      "Wavelength continuity is the binding constraint: conversion's gain\n"
      "is largest at low-to-moderate load and on long routes.\n");
  return 0;
}
