// Every pass anchor in examples/repros/*.opto, seen from the scenario
// DSL: its canonical dump, examples/golden/<stem>.json, must load back
// to the same case, and the scenario runner must execute it as a pass.
// test_fuzz_corpus replays the same anchors through the differential
// check against their pinned outcomes.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "opto/dsl/runner.hpp"
#include "opto/dsl/validate.hpp"
#include "opto/testlib/fuzz_case.hpp"

namespace opto::dsl {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::vector<std::filesystem::path> repro_scenarios() {
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::string(OPTO_EXAMPLES_DIR) + "/repros")) {
    if (entry.is_regular_file() && entry.path().extension() == ".opto")
      files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

testlib::FuzzCase load_case(const std::string& path) {
  ScenarioSpec spec;
  DslError error;
  EXPECT_TRUE(load_scenario_text(slurp(path), path, spec, error))
      << error.format();
  EXPECT_EQ(spec.mode, ScenarioMode::Pass) << path;
  return to_fuzz_case(spec);
}

TEST(DslRepros, GoldenDumpsReplayAsTheSameCase) {
  for (const auto& file : repro_scenarios()) {
    const std::string stem = file.stem().string();
    const std::string golden =
        std::string(OPTO_EXAMPLES_DIR) + "/golden/" + stem + ".json";
    ASSERT_TRUE(std::filesystem::exists(golden)) << stem;
    EXPECT_EQ(load_case(golden), load_case(file.string())) << stem;
  }
}

TEST(DslRepros, TheScenarioRunnerExecutesEveryAnchor) {
  for (const auto& file : repro_scenarios()) {
    ScenarioSpec spec;
    DslError error;
    ASSERT_TRUE(load_scenario_text(slurp(file.string()), file.string(), spec,
                                   error))
        << error.format();
    JsonValue result;
    std::string run_error;
    ASSERT_TRUE(run_scenario(spec, result, run_error)) << run_error;
    EXPECT_NE(result_text(result).find("\"mode\":\"pass\""),
              std::string::npos);
  }
}

}  // namespace
}  // namespace opto::dsl
