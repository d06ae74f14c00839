// Canonical-form invariants of the scenario DSL:
//  - every committed examples/*.opto dump matches its committed golden
//    (byte-compare — the same check the scenario-smoke CI job runs),
//  - parse -> canonical dump -> parse is a fixed point on the examples
//    and on hundreds of generated programs,
//  - the (seed, index) program generator is deterministic, and mutated
//    programs always terminate in a clean parse or a diagnostic,
//  - both loaders reject foreign documents and out-of-range integers,
//    and the JSON loader, a lowering into the .opto AST, rejects every
//    bad scenario with the .opto message.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "opto/dsl/canonical.hpp"
#include "opto/dsl/validate.hpp"
#include "opto/testlib/dsl_gen.hpp"

namespace opto::dsl {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::vector<std::filesystem::path> committed_examples() {
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(OPTO_EXAMPLES_DIR)) {
    if (entry.is_regular_file() && entry.path().extension() == ".opto")
      files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

/// Parses `text`, dumps, reloads the dump, dumps again; returns the
/// first dump after asserting both are identical.
std::string require_fixed_point(const std::string& text,
                                const std::string& name) {
  ScenarioSpec spec;
  DslError error;
  EXPECT_TRUE(load_opto_text(text, name, spec, error))
      << name << ": " << error.format();
  const std::string dump = canonical_text(spec);
  ScenarioSpec reloaded;
  EXPECT_TRUE(load_scenario_text(dump, name + ".json", reloaded, error))
      << name << ": dump does not reload: " << error.format();
  EXPECT_EQ(canonical_text(reloaded), dump)
      << name << ": parse -> dump -> parse is not a fixed point";
  return dump;
}

TEST(DslCanonical, CommittedExamplesMatchTheirGoldens) {
  const auto files = committed_examples();
  ASSERT_GE(files.size(), 10u) << "examples/ lost committed scenarios";
  for (const auto& file : files) {
    const std::string name = file.filename().string();
    const std::string dump = require_fixed_point(slurp(file.string()), name);
    std::filesystem::path golden =
        std::filesystem::path(OPTO_EXAMPLES_DIR) / "golden" /
        file.stem().concat(".json");
    ASSERT_TRUE(std::filesystem::exists(golden))
        << name << " has no golden dump (regenerate with opto_run --dump)";
    EXPECT_EQ(dump, slurp(golden.string()))
        << name << " drifted from examples/golden/" << golden.filename();
  }
}

TEST(DslCanonical, GeneratedProgramsAreValidFixedPoints) {
  std::uint64_t with_strategy = 0, with_fattree = 0, with_bcube = 0;
  for (std::uint64_t i = 0; i < 500; ++i) {
    const std::string program = testlib::generate_program(7, i);
    require_fixed_point(program, "gen-" + std::to_string(i));
    if (testing::Test::HasFailure()) {
      ADD_FAILURE() << "failing program:\n" << program;
      break;
    }
    if (program.find("  strategy ") != std::string::npos) ++with_strategy;
    if (program.find("topology fattree") != std::string::npos) ++with_fattree;
    if (program.find("topology bcube") != std::string::npos) ++with_bcube;
  }
  // The generator must keep exercising the strategy/topology surface the
  // validator grew in the RWA layer, or the grammar fuzz gate goes blind
  // to it.
  EXPECT_GE(with_strategy, 10u);
  EXPECT_GE(with_fattree, 10u);
  EXPECT_GE(with_bcube, 10u);
}

TEST(DslCanonical, GeneratorIsPureInSeedAndIndex) {
  EXPECT_EQ(testlib::generate_program(7, 3), testlib::generate_program(7, 3));
  EXPECT_NE(testlib::generate_program(7, 3), testlib::generate_program(7, 4));
  EXPECT_NE(testlib::generate_program(7, 3), testlib::generate_program(8, 3));
  EXPECT_EQ(testlib::mutate_program(7, 3), testlib::mutate_program(7, 3));
}

TEST(DslCanonical, MutatedProgramsFailCleanlyOrRoundTrip) {
  std::uint64_t accepted = 0, rejected = 0;
  std::uint64_t json_accepted = 0, json_rejected = 0;
  for (std::uint64_t i = 0; i < 500; ++i) {
    const std::string mutant = testlib::mutate_program(7, i);
    ScenarioSpec spec;
    DslError error;
    if (load_opto_text(mutant, "mut", spec, error)) {
      ++accepted;
      require_fixed_point(mutant, "mut-" + std::to_string(i));
    } else {
      ++rejected;
      EXPECT_FALSE(error.message.empty())
          << "rejection without a diagnostic for mutant " << i;
    }
    if (testing::Test::HasFailure()) {
      ADD_FAILURE() << "failing mutant:\n" << mutant;
      break;
    }

    // The same corruptions over the program's canonical JSON: a mutant
    // either reloads to a dump -> load -> dump fixed point or is
    // rejected with a diagnostic.
    ScenarioSpec generated;
    ASSERT_TRUE(load_opto_text(testlib::generate_program(7, i), "gen",
                               generated, error))
        << error.format();
    const std::string json =
        testlib::mutate_text(canonical_text(generated), 7, i);
    ScenarioSpec lowered;
    if (load_scenario_text(json, "mut.json", lowered, error)) {
      ++json_accepted;
      const std::string dump = canonical_text(lowered);
      ScenarioSpec reloaded;
      EXPECT_TRUE(load_scenario_text(dump, "dump.json", reloaded, error))
          << error.format();
      EXPECT_EQ(canonical_text(reloaded), dump)
          << "dump -> load -> dump is not a fixed point";
    } else {
      ++json_rejected;
      EXPECT_FALSE(error.message.empty())
          << "rejection without a diagnostic for JSON mutant " << i;
    }
    if (testing::Test::HasFailure()) {
      ADD_FAILURE() << "failing JSON mutant:\n" << json;
      break;
    }
  }
  // The mutator must actually break most programs or it tests nothing.
  EXPECT_GT(rejected, accepted);
  EXPECT_GT(json_rejected, json_accepted);
}

TEST(DslCanonical, JsonLoaderRejectsUnknownKeysAndWrongSchema) {
  ScenarioSpec spec;
  DslError error;
  EXPECT_FALSE(load_scenario_text(R"({"schema":"opto.other","mode":"trials"})",
                                  "doc", spec, error));
  EXPECT_FALSE(load_scenario_text(
      R"({"schema":"opto.scenario","schema_version":1,"mode":"trials",)"
      R"("label":"x","name":"x","seed":"1","surprise":1,)"
      R"("topology":{"family":"ring","nodes":4},)"
      R"("paths":{"system":"bfs","workload":"permutation"}})",
      "doc", spec, error));
  EXPECT_NE(error.message.find("surprise"), std::string::npos)
      << error.format();
}

TEST(DslCanonical, LoaderRejectsGarbageAndForeignSchemas) {
  ScenarioSpec spec;
  DslError error;
  EXPECT_FALSE(load_scenario_text("not json at all", "doc", spec, error));
  EXPECT_FALSE(load_scenario_text("{}", "doc", spec, error));
  EXPECT_NE(error.message.find("schema"), std::string::npos)
      << error.format();
  // The version lives in schema_version, never in the schema tag.
  EXPECT_FALSE(load_scenario_text(R"({"schema":"opto.scenario/1"})", "doc",
                                  spec, error));
  EXPECT_NE(error.message.find("schema"), std::string::npos)
      << error.format();

  const std::string dump = slurp(std::string(OPTO_EXAMPLES_DIR) +
                                 "/golden/distilled_kill.json");
  ASSERT_TRUE(load_scenario_text(dump, "doc", spec, error)) << error.format();
  std::string future = dump;
  const std::string version = "\"schema_version\":1";
  ASSERT_NE(future.find(version), std::string::npos);
  future.replace(future.find(version), version.size(),
                 "\"schema_version\":9");
  EXPECT_FALSE(load_scenario_text(future, "doc", spec, error));
  EXPECT_NE(error.message.find("schema_version"), std::string::npos)
      << error.format();
}

TEST(DslCanonical, FileLoaderReportsDirectoriesAndMissingFilesUnreadable) {
  const std::string missing = std::string(OPTO_EXAMPLES_DIR) + "/no_such.opto";
  for (const std::string& path : {std::string(OPTO_EXAMPLES_DIR), missing}) {
    SCOPED_TRACE(path);
    ScenarioSpec spec;
    DslError error;
    EXPECT_EQ(load_scenario_file(path, spec, error), LoadStatus::Unreadable);
    EXPECT_EQ(error.file, path);
    EXPECT_EQ(error.message, "cannot read file");
  }
}

/// `text` with every `{KEY}` replaced by its value in `fields`.
std::string fill(std::string text,
                 const std::vector<std::pair<std::string, std::string>>& fields) {
  for (const auto& [key, value] : fields) {
    const std::string slot = "{" + key + "}";
    for (std::size_t at = text.find(slot); at != std::string::npos;
         at = text.find(slot))
      text.replace(at, slot.size(), value);
  }
  return text;
}

TEST(DslCanonical, BothLoadersRejectIntegersPastUint32) {
  // Every integer a pass scenario stores as uint32 must be rejected past
  // 2^32 - 1 with a diagnostic, never narrowed (2^32 used to load as 0).
  const std::string opto =
      "scenario \"wide\" {\n"
      "  mode pass;\n"
      "  topology explicit { nodes 2; edges [[{U}, {V}]]; }\n"
      "  paths explicit { routes [[0, {NODE}]]; }\n"
      "  protocol { bandwidth 2; }\n"
      "  case {\n"
      "    launches [[{PATH}, 0, {LAMBDA}, {PRIORITY}, {LENGTH}]];\n"
      "    pinned [[{LINK}, {PIN_LAMBDA}]];\n"
      "  }\n"
      "}\n";
  const std::string json =
      R"({"schema":"opto.scenario","schema_version":1,"mode":"pass",)"
      R"("name":"wide","label":"wide","seed":"1",)"
      R"("topology":{"family":"explicit","nodes":2,"edges":[[{U},{V}]]},)"
      R"("paths":{"system":"explicit","routes":[[0,{NODE}]]},)"
      R"("protocol":{"bandwidth":2},)"
      R"("case":{"seed":"0","index":0,)"
      R"("launches":[[{PATH},0,{LAMBDA},{PRIORITY},{LENGTH}]],)"
      R"("pinned":[[{LINK},{PIN_LAMBDA}]]}})";
  const std::vector<std::pair<std::string, std::string>> valid = {
      {"U", "0"},      {"V", "1"},        {"NODE", "1"},
      {"PATH", "0"},   {"LAMBDA", "0"},   {"PRIORITY", "0"},
      {"LENGTH", "1"}, {"LINK", "0"},     {"PIN_LAMBDA", "0"}};

  ScenarioSpec spec;
  DslError error;
  ASSERT_TRUE(load_opto_text(fill(opto, valid), "wide.opto", spec, error))
      << error.format();
  ASSERT_TRUE(load_scenario_text(fill(json, valid), "wide.json", spec, error))
      << error.format();

  for (std::size_t i = 0; i < valid.size(); ++i) {
    auto fields = valid;
    fields[i].second = "4294967296";
    const std::string& key = fields[i].first;
    EXPECT_FALSE(load_opto_text(fill(opto, fields), "wide.opto", spec, error))
        << key << " = 2^32 loaded from .opto";
    EXPECT_GE(error.loc.line, 3u) << key << ": " << error.format();
    EXPECT_NE(error.message.find("out of range: got 4294967296"),
              std::string::npos)
        << key << ": " << error.format();
    EXPECT_FALSE(
        load_scenario_text(fill(json, fields), "wide.json", spec, error))
        << key << " = 2^32 loaded from JSON";
    EXPECT_NE(error.message.find("out of range"), std::string::npos)
        << key << ": " << error.format();
  }
}

TEST(DslCanonical, BothLoadersCapTheFaultEpoch) {
  // A pass scenario's fault epoch is capped at 2^52 - 1 in both forms, so
  // every JSON scenario the loader accepts has an .opto form.
  const std::string opto =
      "scenario \"epoch\" {\n"
      "  mode pass;\n"
      "  topology explicit { nodes 2; edges [[0, 1]]; }\n"
      "  paths explicit { routes [[0, 1]]; }\n"
      "  protocol { bandwidth 1; }\n"
      "  faults { epoch {EPOCH}; }\n"
      "  case { launches [[0, 0, 0, 0, 1]]; }\n"
      "}\n";
  const std::string json =
      R"({"schema":"opto.scenario","schema_version":1,"mode":"pass",)"
      R"("name":"epoch","label":"epoch","seed":"1",)"
      R"("topology":{"family":"explicit","nodes":2,"edges":[[0,1]]},)"
      R"("paths":{"system":"explicit","routes":[[0,1]]},)"
      R"("protocol":{"bandwidth":1},)"
      R"("faults":{"epoch":"{EPOCH}"},)"
      R"("case":{"seed":"0","index":0,"launches":[[0,0,0,0,1]]}})";

  ScenarioSpec spec;
  DslError error;
  const std::vector<std::pair<std::string, std::string>> cap = {
      {"EPOCH", "4503599627370495"}};
  ASSERT_TRUE(load_opto_text(fill(opto, cap), "epoch.opto", spec, error))
      << error.format();
  EXPECT_EQ(spec.faults.epoch, kMaxFaultEpoch);
  ASSERT_TRUE(load_scenario_text(fill(json, cap), "epoch.json", spec, error))
      << error.format();
  EXPECT_EQ(spec.faults.epoch, kMaxFaultEpoch);

  const std::string range =
      "out of range: got 9007199254740993, expected 0..4503599627370495";
  const std::vector<std::pair<std::string, std::string>> past = {
      {"EPOCH", "9007199254740993"}};
  EXPECT_FALSE(load_opto_text(fill(opto, past), "epoch.opto", spec, error));
  EXPECT_NE(error.message.find(range), std::string::npos) << error.format();
  const std::string opto_message = error.message;
  EXPECT_FALSE(
      load_scenario_text(fill(json, past), "epoch.json", spec, error));
  EXPECT_NE(error.message.find(range), std::string::npos) << error.format();
  EXPECT_EQ(error.message, opto_message) << error.format();
}

/// One scenario written both ways, bad in the same place.
struct Twin {
  const char* what;
  std::string opto;
  std::string json;
};

TEST(DslCanonical, JsonAndOptoLoadersAgree) {
  // One validator serves both forms, so each twin is rejected by both
  // loaders with the same message (JSON locates it at 1:1).
  const std::string pass_opto =
      "scenario \"twin\" {\n"
      "  mode pass;\n"
      "  topology explicit { nodes 2; edges [[0, 1]]; }\n"
      "  paths explicit { routes [[0, {NODE}]]; }\n"
      "  protocol { bandwidth 1; }\n"
      "  case {\n"
      "    launches [[{PATH}, {START}, {LAMBDA}, 0, 1]];\n"
      "    pinned [[{LINK}, 0]];\n"
      "  }\n"
      "}\n";
  const std::string pass_json =
      R"({"schema":"opto.scenario","schema_version":1,"name":"twin",)"
      R"("label":"twin","mode":"pass",)"
      R"("topology":{"family":"explicit","nodes":2,"edges":[[0,1]]},)"
      R"("paths":{"system":"explicit","routes":[[0,{NODE}]]},)"
      R"("protocol":{"bandwidth":1},)"
      R"("case":{"launches":[[{PATH},{START},{LAMBDA},0,1]],)"
      R"("pinned":[[{LINK},0]]}})";
  const std::vector<std::pair<std::string, std::string>> valid = {
      {"NODE", "1"}, {"PATH", "0"}, {"START", "0"}, {"LAMBDA", "0"},
      {"LINK", "0"}};
  const auto pass_twin = [&](const char* what, const std::string& key,
                             const std::string& value) {
    auto fields = valid;
    for (auto& field : fields)
      if (field.first == key) field.second = value;
    return Twin{what, fill(pass_opto, fields), fill(pass_json, fields)};
  };
  const std::string head =
      R"({"schema":"opto.scenario","schema_version":1,"name":"twin",)"
      R"("label":"twin","mode":"trials",)";
  const std::vector<Twin> twins = {
      {"butterfly_io paths on a ring",
       "scenario \"twin\" { mode trials; topology ring { nodes 8; }\n"
       "  paths butterfly_io { workload permutation; } }\n",
       head + R"("topology":{"family":"ring","nodes":8},)"
              R"("paths":{"system":"butterfly_io","workload":"permutation"}})"},
      {"a strategy over mesh_dimension_order paths",
       "scenario \"twin\" { mode trials; topology mesh { side 4; }\n"
       "  paths mesh_dimension_order { workload permutation; }\n"
       "  strategy first_fit { k 2; } }\n",
       head + R"("topology":{"family":"mesh","side":4},)"
              R"("paths":{"system":"mesh_dimension_order",)"
              R"("workload":"permutation"},)"
              R"("strategy":{"kind":"first_fit","k":2}})"},
      pass_twin("an out-of-range route node", "NODE", "5"),
      pass_twin("an out-of-range launch path", "PATH", "3"),
      pass_twin("an out-of-range launch wavelength", "LAMBDA", "1"),
      pass_twin("an out-of-range pinned link", "LINK", "2"),
      {"a sparse converter list of the wrong length",
       "scenario \"twin\" { mode trials; topology ring { nodes 4; }\n"
       "  paths bfs { workload permutation; }\n"
       "  protocol { conversion sparse; converters [1, 0]; } }\n",
       head + R"("topology":{"family":"ring","nodes":4},)"
              R"("paths":{"system":"bfs","workload":"permutation"},)"
              R"("protocol":{"conversion":"sparse","converters":[1,0]}})"},
      pass_twin("a launch start past 2^53", "START", "9007199254740993"),
      {"a disconnected explicit topology under bfs paths",
       "scenario \"twin\" { mode trials;\n"
       "  topology explicit { nodes 4; edges [[0, 1], [2, 3]]; }\n"
       "  paths bfs { workload permutation; } }\n",
       head + R"("topology":{"family":"explicit","nodes":4,)"
              R"("edges":[[0,1],[2,3]]},)"
              R"("paths":{"system":"bfs","workload":"permutation"}})"},
      {"a disconnected explicit topology in engine mode",
       "scenario \"twin\" { mode engine;\n"
       "  topology explicit { nodes 4; edges [[0, 1], [2, 3]]; } }\n",
       R"({"schema":"opto.scenario","schema_version":1,"name":"twin",)"
       R"("label":"twin","mode":"engine",)"
       R"("topology":{"family":"explicit","nodes":4,)"
       R"("edges":[[0,1],[2,3]]}})"},
      {"a duplicate key",
       "scenario \"twin\" { mode trials; topology ring { nodes 4; }\n"
       "  paths bfs { workload permutation; }\n"
       "  protocol { bandwidth 1; bandwidth 2; } }\n",
       head + R"("topology":{"family":"ring","nodes":4},)"
              R"("paths":{"system":"bfs","workload":"permutation"},)"
              R"("protocol":{"bandwidth":1,"bandwidth":2}})"},
  };

  ScenarioSpec spec;
  DslError error;
  ASSERT_TRUE(load_opto_text(fill(pass_opto, valid), "twin.opto", spec, error))
      << error.format();
  ASSERT_TRUE(
      load_scenario_text(fill(pass_json, valid), "twin.json", spec, error))
      << error.format();
  for (const Twin& twin : twins) {
    ASSERT_FALSE(load_opto_text(twin.opto, "twin.opto", spec, error))
        << twin.what << " loaded from .opto";
    const std::string opto_message = error.message;
    ASSERT_FALSE(load_scenario_text(twin.json, "twin.json", spec, error))
        << twin.what << " loaded from JSON";
    EXPECT_EQ(error.message, opto_message) << twin.what;
    EXPECT_EQ(error.format().rfind("twin.json:1:1: ", 0), 0u)
        << error.format();
  }
}

TEST(DslCanonical, JsonLoweringRejectsWhatNoOptoProgramSpells) {
  const std::string head =
      R"({"schema":"opto.scenario","schema_version":1,"name":"x",)"
      R"("mode":"trials","paths":{"system":"bfs","workload":"permutation"},)";
  const std::vector<std::pair<std::string, std::string>> cases = {
      {head + R"("topology":{"family":"ring","nodes":null}})",
       "unexpected null in setting 'topology.nodes'"},
      {head + R"("topology":{"family":"ring","nodes":{"n":4}}})",
       "unexpected object in setting 'topology.nodes'"},
      {head + R"("topology":{"family":"ring","nodes":4},)"
              R"("topology":{"family":"ring","nodes":5}})",
       "duplicate key 'topology'"},
      {head + R"("topology":{"family":"ring","family":"mesh","nodes":4}})",
       "duplicate key 'topology.family'"},
      {R"({"schema":"opto.scenario","schema_version":1,"mode":"trials"})",
       "missing required key 'name'"},
  };
  for (const auto& [doc, message] : cases) {
    ScenarioSpec spec;
    DslError error;
    EXPECT_FALSE(load_scenario_text(doc, "doc.json", spec, error)) << doc;
    EXPECT_EQ(error.message, message) << doc;
  }
}

TEST(DslCanonical, JsonTakesTheOptoDefaults) {
  // No label: it defaults to the name's slug, as in .opto.
  ScenarioSpec spec;
  DslError error;
  ASSERT_TRUE(load_scenario_text(
      R"({"schema":"opto.scenario","schema_version":1,"name":"Ring Eight",)"
      R"("mode":"trials","topology":{"family":"ring","nodes":8},)"
      R"("paths":{"system":"bfs","workload":"permutation"}})",
      "doc.json", spec, error))
      << error.format();
  EXPECT_EQ(spec.label, "ring-eight");
}

}  // namespace
}  // namespace opto::dsl
