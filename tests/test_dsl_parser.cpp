// Golden-file diagnostics: every malformed program in tests/dsl_bad/
// must be rejected with the exact file:line:col + message committed in
// its sibling .expected file. Pinning the bytes (not just "an error")
// keeps source locations honest — an off-by-one in the lexer's column
// tracking or a reworded message shows up as a named diff here.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "opto/dsl/validate.hpp"
#include "opto/graph/bcube.hpp"
#include "opto/graph/butterfly.hpp"
#include "opto/graph/complete.hpp"
#include "opto/graph/fattree.hpp"
#include "opto/graph/graph_algo.hpp"
#include "opto/graph/hypercube.hpp"
#include "opto/graph/mesh.hpp"
#include "opto/graph/ring.hpp"

namespace opto::dsl {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::string rstrip(std::string text) {
  while (!text.empty() && (text.back() == '\n' || text.back() == '\r'))
    text.pop_back();
  return text;
}

std::vector<std::filesystem::path> bad_programs() {
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(OPTO_DSL_BAD_DIR)) {
    if (entry.is_regular_file() && entry.path().extension() == ".opto")
      files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

TEST(DslParser, EveryBadProgramMatchesItsGoldenDiagnostic) {
  const auto files = bad_programs();
  ASSERT_GE(files.size(), 12u) << "tests/dsl_bad/ must keep >= 12 cases";
  for (const auto& file : files) {
    const std::string name = file.filename().string();
    std::filesystem::path expected_path = file;
    expected_path.replace_extension(".expected");
    ASSERT_TRUE(std::filesystem::exists(expected_path))
        << name << " has no .expected golden";
    const std::string expected = rstrip(slurp(expected_path.string()));

    ScenarioSpec spec;
    DslError error;
    ASSERT_FALSE(load_opto_text(slurp(file.string()), name, spec, error))
        << name << " parsed cleanly but is a committed bad program";
    EXPECT_EQ(error.format(), expected) << "diagnostic drifted for " << name;
  }
}

TEST(DslParser, DiagnosticsCarrySourceLocations) {
  for (const auto& file : bad_programs()) {
    const std::string name = file.filename().string();
    ScenarioSpec spec;
    DslError error;
    ASSERT_FALSE(load_opto_text(slurp(file.string()), name, spec, error));
    EXPECT_GE(error.loc.line, 1u) << name;
    EXPECT_GE(error.loc.col, 1u) << name;
    EXPECT_FALSE(error.message.empty()) << name;
    // format() is "file:line:col: message".
    EXPECT_EQ(error.format().rfind(name + ":", 0), 0u) << error.format();
  }
}

TEST(DslParser, ValidProgramReportsNoError) {
  const std::string program =
      "scenario \"ok\" {\n"
      "  mode trials;\n"
      "  topology ring { nodes 8; }\n"
      "  paths bfs { workload permutation; }\n"
      "}\n";
  ScenarioSpec spec;
  DslError error;
  ASSERT_TRUE(load_opto_text(program, "ok.opto", spec, error))
      << error.format();
  EXPECT_EQ(spec.mode, ScenarioMode::Trials);
  EXPECT_EQ(spec.topology.family, "ring");
  EXPECT_EQ(spec.topology.nodes, 8u);
  EXPECT_EQ(spec.label, "ok");  // defaults to the slugified name
}

TEST(DslParser, ProgramExactlyInsideTheChannelBudgetValidates) {
  // K_1024 has 1024 x 1023 = 1,047,552 directed links: at B=1 that is the
  // largest complete graph under kMaxChannels = 2^20.
  const std::string program =
      "scenario \"edge\" {\n"
      "  mode trials;\n"
      "  topology complete { nodes 1024; }\n"
      "  paths bfs { workload permutation; }\n"
      "  protocol { bandwidth 1; }\n"
      "}\n";
  ScenarioSpec spec;
  DslError error;
  ASSERT_TRUE(load_opto_text(program, "edge.opto", spec, error))
      << error.format();
  EXPECT_EQ(topology_links(spec.topology), 1047552u);
  EXPECT_LE(topology_links(spec.topology) * spec.protocol.bandwidth,
            kMaxChannels);
  EXPECT_TRUE(channel_budget_error(spec).empty());
  // One more wavelength doubles the channel space past the budget.
  spec.protocol.bandwidth = 2;
  EXPECT_FALSE(channel_budget_error(spec).empty());
}

TEST(DslParser, ProgramExactlyInsideTheRouteTableValidates) {
  // Ring-203: 203 x 202 ordered pairs x routes of up to 101 hops =
  // 4,141,406 hops, the largest ring under kMaxRouteTableHops = 2^22.
  const auto program = [](int nodes) {
    return "scenario \"edge\" {\n"
           "  mode engine;\n"
           "  topology ring { nodes " + std::to_string(nodes) + "; }\n"
           "}\n";
  };
  ScenarioSpec spec;
  DslError error;
  ASSERT_TRUE(load_opto_text(program(203), "edge.opto", spec, error))
      << error.format();
  EXPECT_TRUE(route_table_fits(topology_nodes(spec.topology),
                               topology_diameter(spec.topology)));
  EXPECT_FALSE(load_opto_text(program(204), "edge.opto", spec, error));
  EXPECT_EQ(error.format(),
            "edge.opto:3:3: engine route table too large: topology ring has "
            "41412 ordered node pairs x routes of up to 102 hops = 4224024 "
            "hops, the cap is 4194304");
  // The bound is the engine's only: the same ring runs trials.
  EXPECT_TRUE(load_opto_text(
      "scenario \"t\" { mode trials; topology ring { nodes 65536; }\n"
      "  paths bfs { workload permutation; } }\n",
      "t.opto", spec, error))
      << error.format();
}

TEST(DslParser, TopologyLinksMatchesTheBuiltGraph) {
  // The budget is computed from the spec, before anything is built; it
  // must agree with the builders for every family.
  const auto check = [](const TopologySpec& topo, const Graph& graph) {
    EXPECT_EQ(topology_links(topo), graph.link_count()) << topo.family;
    EXPECT_EQ(topology_nodes(topo), graph.node_count()) << topo.family;
    // The route-table bound needs an upper bound on every BFS route: the
    // families' closed forms are exact, an explicit graph takes n - 1.
    if (topo.family == "explicit")
      EXPECT_GE(topology_diameter(topo), diameter(graph)) << topo.family;
    else
      EXPECT_EQ(topology_diameter(topo), diameter(graph)) << topo.family;
  };
  for (const std::uint32_t dim : {2u, 5u}) {
    TopologySpec topo;
    topo.family = "butterfly";
    topo.dim = dim;
    check(topo, make_butterfly(dim).graph);
    topo.family = "hypercube";
    check(topo, make_hypercube(dim));
  }
  for (const std::uint32_t side : {2u, 7u}) {
    TopologySpec topo;
    topo.family = "mesh";
    topo.side = side;
    check(topo, make_mesh({side, side}).graph);
  }
  for (const std::uint32_t nodes : {3u, 12u}) {
    TopologySpec topo;
    topo.family = "ring";
    topo.nodes = nodes;
    check(topo, make_ring(nodes));
    topo.family = "complete";
    check(topo, make_complete(nodes));
  }
  {
    TopologySpec topo;
    topo.family = "single_link";
    GraphBuilder builder(2, "single-link");
    builder.add_edge(0, 1);
    Graph graph = std::move(builder).build();
    check(topo, graph);
  }
  for (const std::uint32_t radix : {2u, 6u}) {
    TopologySpec topo;
    topo.family = "fattree";
    topo.radix = radix;
    check(topo, make_fat_tree(radix).graph);
  }
  for (const auto& [ports, levels] :
       {std::pair<std::uint32_t, std::uint32_t>{2, 1}, {3, 3}}) {
    TopologySpec topo;
    topo.family = "bcube";
    topo.ports = ports;
    topo.levels = levels;
    check(topo, make_bcube(ports, levels).graph);
  }
  for (const std::uint32_t nodes : {2u, 6u}) {
    TopologySpec topo;
    topo.family = "explicit";
    topo.nodes = nodes;
    for (std::uint32_t u = 0; u + 1 < nodes; ++u)
      topo.edges.emplace_back(u, u + 1);
    if (nodes > 2) topo.edges.emplace_back(0, nodes - 1);
    GraphBuilder builder(nodes, "explicit");
    for (const auto& [u, v] : topo.edges) builder.add_edge(u, v);
    Graph graph = std::move(builder).build();
    check(topo, graph);
  }
}

}  // namespace
}  // namespace opto::dsl
