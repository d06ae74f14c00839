// Replays the fuzzer's committed corpus in tier-1. examples/repros/*.opto
// holds minimized reproducers of fixed divergences plus distilled
// behavior anchors (a kill, a truncation, a retune, a fault kill, a
// corrupted arrival, an RWA retry). Each must load as a pass scenario,
// map to a well-formed FuzzCase, survive the fuzzer's save path
// unchanged (so replays are bit-identical), diff clean, and reproduce
// the outcome pinned below — if an engine change flips any of them,
// this test names the file.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "opto/dsl/canonical.hpp"
#include "opto/dsl/runner.hpp"
#include "opto/dsl/validate.hpp"
#include "opto/testlib/differ.hpp"
#include "opto/testlib/fuzz_case.hpp"

namespace opto::testlib {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::vector<std::filesystem::path> corpus_files() {
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::string(OPTO_EXAMPLES_DIR) + "/repros")) {
    if (entry.is_regular_file() && entry.path().extension() == ".opto")
      files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

FuzzCase load_case(const std::string& name, const std::string& text) {
  dsl::ScenarioSpec spec;
  dsl::DslError error;
  EXPECT_TRUE(dsl::load_scenario_text(text, name, spec, error))
      << error.format();
  EXPECT_EQ(spec.mode, dsl::ScenarioMode::Pass) << name;
  return dsl::to_fuzz_case(spec);
}

/// The outcome each anchor pins: the pass metrics of its differential
/// check plus the RWA stage's request and round-1 blocking counts.
struct Outcome {
  std::uint64_t delivered, killed, truncated_arrivals, retunes, fault_kills,
      corrupted_arrivals, rwa_requests, rwa_blocked;

  bool operator==(const Outcome&) const = default;
};

const std::map<std::string, Outcome>& anchored_outcomes() {
  static const std::map<std::string, Outcome> table = {
      {"distilled_components", {0, 2, 0, 0, 0, 0, 15, 5}},
      {"distilled_corrupt", {6, 0, 0, 0, 0, 1, 7, 0}},
      {"distilled_fault", {0, 0, 0, 0, 1, 0, 1, 0}},
      {"distilled_kill", {1, 1, 0, 0, 0, 0, 2, 5}},
      {"distilled_retune", {2, 0, 0, 1, 0, 0, 1, 0}},
      {"distilled_rwa", {0, 0, 0, 0, 0, 0, 10, 2}},
      {"distilled_truncate", {1, 0, 1, 0, 0, 0, 2, 5}},
      {"repro_seed20260805_case640", {2, 0, 1, 0, 0, 0, 3, 5}},
  };
  return table;
}

void PrintTo(const Outcome& o, std::ostream* os) {
  *os << "{delivered " << o.delivered << ", killed " << o.killed
      << ", truncated_arrivals " << o.truncated_arrivals << ", retunes "
      << o.retunes << ", fault_kills " << o.fault_kills
      << ", corrupted_arrivals " << o.corrupted_arrivals << ", rwa_requests "
      << o.rwa_requests << ", rwa_blocked " << o.rwa_blocked << "}";
}

TEST(FuzzCorpus, EveryCaseIsCanonicalAndDiffsClean) {
  const auto files = corpus_files();
  std::vector<std::string> stems;
  for (const auto& file : files) stems.push_back(file.stem().string());
  std::vector<std::string> pinned;
  for (const auto& [stem, outcome] : anchored_outcomes())
    pinned.push_back(stem);
  ASSERT_EQ(stems, pinned)
      << "examples/repros/ and the pinned outcome table list different "
         "anchors";

  for (const auto& file : files) {
    const std::string stem = file.stem().string();
    const FuzzCase fuzz = load_case(file.string(), slurp(file.string()));
    std::string error;
    ASSERT_TRUE(well_formed(fuzz, &error)) << stem << ": " << error;

    // What opto_fuzz --dump would write for this case must load back to
    // the same case.
    const std::string saved = dsl::canonical_text(dsl::from_fuzz_case(fuzz));
    EXPECT_EQ(load_case(stem + ".json", saved), fuzz)
        << stem << " does not survive the fuzzer's save path";

    const DiffReport report = diff_case(fuzz);
    EXPECT_TRUE(report.ok()) << stem << ":\n" << report.summary();
    const Outcome got{report.metrics.delivered,
                      report.metrics.killed,
                      report.metrics.truncated_arrivals,
                      report.metrics.retunes,
                      report.metrics.fault_kills,
                      report.metrics.corrupted_arrivals,
                      report.rwa_requests,
                      report.rwa_blocked};
    EXPECT_EQ(got, anchored_outcomes().at(stem)) << stem;
  }
}

}  // namespace
}  // namespace opto::testlib
