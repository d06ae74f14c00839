#include "opto/testlib/dsl_gen.hpp"

#include <cstddef>
#include <iterator>
#include <sstream>
#include <utility>
#include <vector>

#include "opto/rng/rng.hpp"

namespace opto::testlib {

namespace {

/// Doubles are emitted from fixed spellings so the generated text, its
/// canonical %.17g dump, and the re-parsed value never disagree.
const char* const kRateTable[] = {"0", "0.125", "0.25", "0.5", "0.75", "1"};
const char* const kPositiveTable[] = {"0.25", "0.5", "1", "2", "4", "8"};

const char* pick(Rng& rng, const char* const* table, std::size_t size) {
  return table[rng.next_below(size)];
}

std::uint64_t in(Rng& rng, std::uint64_t lo, std::uint64_t hi) {
  return lo + rng.next_below(hi - lo + 1);
}

struct Topology {
  std::string family;
  std::uint64_t nodes = 0;  ///< validator's topology_nodes()
  std::uint64_t dim = 0, side = 0, declared_nodes = 0;
  std::uint64_t radix = 0, ports = 0, levels = 0;  // fattree / bcube
  std::vector<std::pair<std::uint64_t, std::uint64_t>> edges;  // explicit
};

/// Draws a small topology. `need_explicit` forces the explicit family
/// (pass mode requires it).
Topology draw_topology(Rng& rng, bool need_explicit) {
  Topology topo;
  const std::uint64_t family =
      need_explicit ? 6 : rng.next_below(9);
  switch (family) {
    case 0:
      topo.family = "ring";
      topo.declared_nodes = in(rng, 3, 10);
      topo.nodes = topo.declared_nodes;
      break;
    case 1:
      topo.family = "hypercube";
      topo.dim = in(rng, 1, 4);
      topo.nodes = std::uint64_t{1} << topo.dim;
      break;
    case 2:
      topo.family = "complete";
      topo.declared_nodes = in(rng, 2, 8);
      topo.nodes = topo.declared_nodes;
      break;
    case 3:
      topo.family = "mesh";
      topo.side = in(rng, 2, 4);
      topo.nodes = topo.side * topo.side;
      break;
    case 4:
      topo.family = "butterfly";
      topo.dim = in(rng, 1, 3);
      topo.nodes = (topo.dim + 1) << topo.dim;
      break;
    case 5:
      topo.family = "single_link";
      topo.nodes = 2;
      break;
    case 7: {
      topo.family = "fattree";
      topo.radix = 2 * in(rng, 1, 2);  // even by construction
      const std::uint64_t half = topo.radix / 2;
      topo.nodes =
          half * half + topo.radix * topo.radix + half * half * topo.radix;
      break;
    }
    case 8: {
      topo.family = "bcube";
      topo.ports = in(rng, 2, 4);
      topo.levels = in(rng, 1, 2);
      std::uint64_t servers = 1;
      for (std::uint64_t l = 0; l < topo.levels; ++l) servers *= topo.ports;
      topo.nodes = servers + topo.levels * (servers / topo.ports);
      break;
    }
    default: {
      topo.family = "explicit";
      topo.declared_nodes = in(rng, 2, 8);
      topo.nodes = topo.declared_nodes;
      // A chain keeps every node reachable; chords add branching.
      for (std::uint64_t i = 0; i + 1 < topo.nodes; ++i)
        topo.edges.emplace_back(i, i + 1);
      const std::uint64_t chords = rng.next_below(3);
      for (std::uint64_t c = 0; c < chords && topo.nodes >= 3; ++c) {
        const std::uint64_t u = rng.next_below(topo.nodes);
        const std::uint64_t v = rng.next_below(topo.nodes);
        if (u != v) topo.edges.emplace_back(u, v);
      }
      break;
    }
  }
  return topo;
}

void emit_topology(std::ostringstream& os, const Topology& topo) {
  os << "  topology " << topo.family << " {";
  if (topo.family == "butterfly" || topo.family == "hypercube")
    os << " dim " << topo.dim << ";";
  if (topo.family == "mesh") os << " side " << topo.side << ";";
  if (topo.family == "fattree") os << " radix " << topo.radix << ";";
  if (topo.family == "bcube")
    os << " ports " << topo.ports << "; levels " << topo.levels << ";";
  if (topo.family == "ring" || topo.family == "complete" ||
      topo.family == "explicit")
    os << " nodes " << topo.declared_nodes << ";";
  if (topo.family == "explicit") {
    os << " edges [";
    for (std::size_t i = 0; i < topo.edges.size(); ++i) {
      if (i) os << ", ";
      os << "[" << topo.edges[i].first << ", " << topo.edges[i].second << "]";
    }
    os << "];";
  }
  os << " }\n";
}

/// Protocol section; returns the bandwidth so pass-mode launches can
/// stay inside it.
std::uint64_t emit_protocol(std::ostringstream& os, Rng& rng,
                            std::uint64_t node_count) {
  const std::uint64_t bandwidth = in(rng, 1, 4);
  os << "  protocol {\n";
  if (rng.next_bernoulli(0.5))
    os << "    rule " << (rng.next_bernoulli(0.5) ? "priority" : "serve_first")
       << ";\n";
  if (rng.next_bernoulli(0.5))
    os << "    tie " << (rng.next_bernoulli(0.5) ? "first_wins" : "kill_all")
       << ";\n";
  os << "    bandwidth " << bandwidth << ";\n";
  if (rng.next_bernoulli(0.7))
    os << "    worm_length " << in(rng, 1, 8) << ";\n";
  if (rng.next_bernoulli(0.7))
    os << "    max_rounds " << in(rng, 1, 64) << ";\n";
  if (rng.next_bernoulli(0.3)) {
    os << "    ack simulated;\n";
    os << "    ack_length " << in(rng, 1, 4) << ";\n";
  }
  const std::uint64_t conversion = rng.next_below(3);
  if (conversion == 1) {
    os << "    conversion full;\n";
  } else if (conversion == 2) {
    os << "    conversion sparse;\n    converters [";
    for (std::uint64_t i = 0; i < node_count; ++i) {
      if (i) os << ", ";
      os << rng.next_below(2);
    }
    os << "];\n";
  }
  os << "  }\n";
  return bandwidth;
}

void emit_faults(std::ostringstream& os, Rng& rng, bool pass_mode) {
  os << "  faults {\n";
  if (rng.next_bernoulli(0.7))
    os << "    link_outage_rate " << pick(rng, kRateTable, 6) << ";\n";
  if (rng.next_bernoulli(0.4))
    os << "    coupler_outage_rate " << pick(rng, kRateTable, 6) << ";\n";
  if (rng.next_bernoulli(0.4))
    os << "    stuck_wavelength_rate " << pick(rng, kRateTable, 6) << ";\n";
  if (rng.next_bernoulli(0.4))
    os << "    corruption_rate " << pick(rng, kRateTable, 6) << ";\n";
  if (rng.next_bernoulli(0.4))
    os << "    ack_drop_rate " << pick(rng, kRateTable, 6) << ";\n";
  if (rng.next_bernoulli(0.5)) {
    os << "    outage_period " << in(rng, 1, 128) << ";\n";
    os << "    outage_duration " << in(rng, 1, 128) << ";\n";
  }
  if (pass_mode && rng.next_bernoulli(0.5)) {
    os << "    seed " << rng.next_below(1000) << ";\n";
    os << "    epoch " << rng.next_below(64) << ";\n";
  }
  os << "  }\n";
}

void emit_schedule(std::ostringstream& os, Rng& rng) {
  switch (rng.next_below(4)) {
    case 0:
      os << "  schedule paper {";
      if (rng.next_bernoulli(0.4))
        os << " congestion_factor " << pick(rng, kPositiveTable, 6) << ";";
      if (rng.next_bernoulli(0.4))
        os << " log_floor_factor " << pick(rng, kPositiveTable, 6) << ";";
      os << " }\n";
      break;
    case 1:
      os << "  schedule fixed { delta " << in(rng, 1, 32) << "; }\n";
      break;
    case 2:
      os << "  schedule nodelay { }\n";
      break;
    default:
      os << "  schedule adaptive { initial " << in(rng, 1, 32) << "; }\n";
      break;
  }
}

void emit_engine(std::ostringstream& os, Rng& rng) {
  os << "  engine {\n";
  const std::uint64_t process = rng.next_below(3);
  if (process == 1) {
    os << "    process mmpp;\n";
    if (rng.next_bernoulli(0.5))
      os << "    mmpp_burst " << pick(rng, kPositiveTable, 6) << ";\n";
    if (rng.next_bernoulli(0.5))
      os << "    mmpp_calm " << pick(rng, kPositiveTable, 6) << ";\n";
    if (rng.next_bernoulli(0.5))
      os << "    mmpp_mean_dwell " << pick(rng, kPositiveTable, 6) << ";\n";
  } else if (process == 2) {
    os << "    process trace;\n    trace [";
    const std::uint64_t gaps = in(rng, 1, 6);
    for (std::uint64_t i = 0; i < gaps; ++i) {
      if (i) os << ", ";
      os << pick(rng, kPositiveTable, 6);
    }
    os << "];\n";
  } else if (rng.next_bernoulli(0.5)) {
    os << "    process poisson;\n";
  }
  if (rng.next_bernoulli(0.6))
    os << "    rate " << pick(rng, kPositiveTable, 6) << ";\n";
  if (rng.next_bernoulli(0.4))
    os << "    holding_time " << pick(rng, kPositiveTable, 6) << ";\n";
  if (rng.next_bernoulli(0.4))
    os << "    round_interval " << pick(rng, kPositiveTable, 6) << ";\n";
  if (rng.next_bernoulli(0.4))
    os << "    round_delta " << in(rng, 1, 32) << ";\n";
  if (rng.next_bernoulli(0.4))
    os << "    max_setup_rounds " << in(rng, 1, 32) << ";\n";
  if (rng.next_bernoulli(0.6))
    os << "    arrivals " << in(rng, 10, 300) << ";\n";
  if (rng.next_bernoulli(0.4))
    os << "    warmup_divisor " << in(rng, 2, 10) << ";\n";
  if (rng.next_bernoulli(0.3)) os << "    fit random_fit;\n";
  if (rng.next_bernoulli(0.3))
    os << "    record " << (rng.next_bernoulli(0.5) ? "true" : "false")
       << ";\n";
  os << "  }\n";
}

/// Routes for pass mode: simple walks along the explicit chain, so the
/// scenario is not just parseable but runnable.
std::vector<std::vector<std::uint64_t>> draw_routes(Rng& rng,
                                                    std::uint64_t nodes) {
  std::vector<std::vector<std::uint64_t>> routes;
  const std::uint64_t count = in(rng, 1, 4);
  for (std::uint64_t r = 0; r < count; ++r) {
    const std::uint64_t start = rng.next_below(nodes);
    const std::uint64_t span = rng.next_below(nodes - start) + 1;
    std::vector<std::uint64_t> route;
    for (std::uint64_t i = 0; i < span; ++i) route.push_back(start + i);
    if (span >= 2 && rng.next_bernoulli(0.3)) {
      // Walk back down without repeating the apex node.
      for (std::uint64_t i = span - 1; i-- > 0;) route.push_back(start + i);
    }
    routes.push_back(std::move(route));
  }
  return routes;
}

}  // namespace

std::string generate_program(std::uint64_t seed, std::uint64_t index) {
  Rng rng = Rng::stream(seed, index);
  std::ostringstream os;
  const std::uint64_t mode = rng.next_below(3);
  const bool pass = mode == 2;

  os << "scenario \"gen-" << index << "\" {\n";
  os << "  mode " << (mode == 0 ? "trials" : mode == 1 ? "engine" : "pass")
     << ";\n";
  if (rng.next_bernoulli(0.7)) os << "  seed " << rng.next_below(10000)
                                  << ";\n";
  if (rng.next_bernoulli(0.3))
    os << "  label \"case-" << rng.next_below(100) << "\";\n";
  if (mode == 0 && rng.next_bernoulli(0.6))
    os << "  trials " << in(rng, 1, 8) << ";\n";

  const Topology topo = draw_topology(rng, pass);
  emit_topology(os, topo);

  std::vector<std::vector<std::uint64_t>> routes;
  bool bfs_paths = false;
  if (mode != 1) {
    if (pass || topo.family == "explicit") {
      routes = draw_routes(rng, topo.nodes);
      os << "  paths explicit { routes [";
      for (std::size_t r = 0; r < routes.size(); ++r) {
        if (r) os << ", ";
        os << "[";
        for (std::size_t i = 0; i < routes[r].size(); ++i) {
          if (i) os << ", ";
          os << routes[r][i];
        }
        os << "]";
      }
      os << "]; }\n";
    } else {
      std::string system = "bfs";
      if (topo.family == "butterfly" && rng.next_bernoulli(0.6))
        system = "butterfly_io";
      if (topo.family == "mesh" && rng.next_bernoulli(0.6))
        system = "mesh_dimension_order";
      bfs_paths = system == "bfs";
      os << "  paths " << system << " { workload "
         << (rng.next_bernoulli(0.5) ? "permutation" : "random_function")
         << "; }\n";
    }
  }

  const std::uint64_t bandwidth = emit_protocol(os, rng, topo.nodes);
  if (mode == 0 && rng.next_bernoulli(0.8)) emit_schedule(os, rng);
  // Strategy blocks are trials-only and require the bfs path system
  // (validator cross-checks); split is multipath-only.
  if (mode == 0 && bfs_paths && rng.next_bernoulli(0.4)) {
    const char* const kKinds[] = {"first_fit", "least_used", "random_fit",
                                  "multipath", "valiant"};
    const std::uint64_t kind = rng.next_below(std::size(kKinds));
    os << "  strategy " << kKinds[kind] << " {";
    if (rng.next_bernoulli(0.6)) os << " k " << in(rng, 1, 16) << ";";
    if (kKinds[kind] == std::string("multipath") && rng.next_bernoulli(0.6))
      os << " split " << in(rng, 1, 8) << ";";
    os << " }\n";
  }
  if (mode == 1 && rng.next_bernoulli(0.9)) emit_engine(os, rng);
  if (rng.next_bernoulli(0.3)) emit_faults(os, rng, pass);

  if (pass) {
    os << "  case {\n";
    if (rng.next_bernoulli(0.7)) os << "    seed " << rng.next_below(1000)
                                    << ";\n";
    if (rng.next_bernoulli(0.3)) os << "    index " << rng.next_below(64)
                                    << ";\n";
    os << "    launches [";
    const std::uint64_t launches = in(rng, 1, 5);
    for (std::uint64_t i = 0; i < launches; ++i) {
      if (i) os << ", ";
      os << "[" << rng.next_below(routes.size()) << ", " << rng.next_below(11)
         << ", " << rng.next_below(bandwidth) << ", " << rng.next_below(4)
         << ", " << in(rng, 1, 8) << "]";
    }
    os << "];\n";
    if (!topo.edges.empty() && rng.next_bernoulli(0.3)) {
      os << "    pinned [";
      const std::uint64_t pins = in(rng, 1, 3);
      for (std::uint64_t i = 0; i < pins; ++i) {
        if (i) os << ", ";
        os << "[" << rng.next_below(2 * topo.edges.size()) << ", "
           << rng.next_below(bandwidth) << "]";
      }
      os << "];\n";
    }
    os << "  }\n";
  }

  os << "}\n";
  return os.str();
}

std::string mutate_program(std::uint64_t seed, std::uint64_t index) {
  return mutate_text(generate_program(seed, index), seed, index);
}

std::string mutate_text(std::string text, std::uint64_t seed,
                        std::uint64_t index) {
  // Independent stream: mutation choices never perturb generation.
  Rng rng = Rng::stream(seed ^ 0x6d75746174655f5full, index);
  const char* const kInjections[] = {
      "{",        "}",      ";",        "[",       "]",    "\"",
      "scenario", "topology", "mode",   "0x10",    "1e999", "-",
      "999999999999999999999999999999", "#", "//", "\\",   "\x01", "\xff"};
  const std::uint64_t mutations = in(rng, 1, 4);
  for (std::uint64_t m = 0; m < mutations && !text.empty(); ++m) {
    switch (rng.next_below(5)) {
      case 0: {  // flip one byte to an arbitrary value (NUL included)
        const std::size_t at = rng.next_below(text.size());
        text[at] = static_cast<char>(rng.next_below(256));
        break;
      }
      case 1: {  // delete a short span
        const std::size_t at = rng.next_below(text.size());
        const std::size_t len = 1 + rng.next_below(8);
        text.erase(at, len);
        break;
      }
      case 2: {  // inject a structural token / hostile literal
        const std::size_t at = rng.next_below(text.size() + 1);
        text.insert(at, kInjections[rng.next_below(std::size(kInjections))]);
        break;
      }
      case 3: {  // duplicate a span (duplicate-section / deep-nesting fodder)
        const std::size_t at = rng.next_below(text.size());
        const std::size_t len = 1 + rng.next_below(32);
        text.insert(at, text.substr(at, len));
        break;
      }
      default:  // truncate (unterminated strings / unexpected EOF)
        text.resize(rng.next_below(text.size() + 1));
        break;
    }
  }
  return text;
}

}  // namespace opto::testlib
