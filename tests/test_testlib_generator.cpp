// Generator determinism — the property the replayable repros rest on:
// generate_case(seed, index) must be a pure function of its arguments,
// independent of thread settings, environment, and process boundaries.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "opto/dsl/canonical.hpp"
#include "opto/dsl/runner.hpp"
#include "opto/dsl/validate.hpp"
#include "opto/sim/occupancy.hpp"
#include "opto/testlib/differ.hpp"
#include "opto/testlib/fuzz_case.hpp"
#include "opto/testlib/generator.hpp"

namespace opto::testlib {
namespace {

constexpr std::uint64_t kSeed = 0xa11ce5ull;

/// The bytes opto_fuzz saves a case as: its pass-scenario dump.
std::string case_text(const FuzzCase& fuzz) {
  return dsl::canonical_text(dsl::from_fuzz_case(fuzz));
}

TEST(Generator, SameSeedSameBytesInProcess) {
  for (std::uint64_t i = 0; i < 64; ++i) {
    const std::string first = case_text(generate_case(kSeed, i));
    const std::string second = case_text(generate_case(kSeed, i));
    EXPECT_EQ(first, second) << "case " << i;
  }
}

TEST(Generator, IndependentOfThreadEnvironment) {
  // The generator must not consult OPTO_THREADS (or any environment) —
  // flipping it between calls must not move a single byte.
  setenv("OPTO_THREADS", "1", /*overwrite=*/1);
  std::vector<std::string> single;
  for (std::uint64_t i = 0; i < 32; ++i)
    single.push_back(case_text(generate_case(kSeed, i)));
  setenv("OPTO_THREADS", "8", /*overwrite=*/1);
  for (std::uint64_t i = 0; i < 32; ++i)
    EXPECT_EQ(case_text(generate_case(kSeed, i)), single[i])
        << "case " << i;
  unsetenv("OPTO_THREADS");
}

TEST(Generator, StreamsAreDistinct) {
  // Different (seed, index) pairs should give different cases virtually
  // always; a collapse here means the stream derivation is broken.
  std::set<std::string> bytes;
  for (std::uint64_t i = 0; i < 64; ++i)
    bytes.insert(case_text(generate_case(kSeed, i)));
  bytes.insert(case_text(generate_case(kSeed + 1, 0)));
  EXPECT_GE(bytes.size(), 60u);
}

TEST(Generator, LargeGraphsStayInsideTheChannelBudget) {
  // Thousands of links at up to 1024 wavelengths would overflow the
  // simulator's channel table; the generator caps the bandwidth instead.
  GenOptions options;
  options.max_nodes = 3000;
  options.max_bandwidth = 1024;
  for (std::uint64_t i = 0; i < 8; ++i) {
    const FuzzCase fuzz = generate_case(kSeed, i, options);
    EXPECT_LE(2 * fuzz.edges.size() * fuzz.bandwidth, kMaxChannels)
        << "case " << i;
    EXPECT_TRUE(well_formed(fuzz)) << "case " << i;
  }
}

#ifdef OPTO_FUZZ_BIN
/// Stdout of `opto_fuzz <args>`.
std::string run_fuzz(const std::string& args) {
  const std::string command =
      std::string(OPTO_FUZZ_BIN) + " " + args + " 2>/dev/null";
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return {};
  std::string output;
  char buffer[4096];
  std::size_t got = 0;
  while ((got = fread(buffer, 1, sizeof buffer, pipe)) > 0)
    output.append(buffer, got);
  pclose(pipe);
  return output;
}

std::string run_dump(std::uint64_t seed, std::uint64_t index) {
  return run_fuzz("--seed " + std::to_string(seed) + " --dump " +
                  std::to_string(index));
}

TEST(Generator, SameSeedSameBytesAcrossProcesses) {
  // Two separate opto_fuzz processes and this test process must agree on
  // every byte of the same (seed, index) cases.
  for (std::uint64_t i = 0; i < 8; ++i) {
    const std::string in_process = case_text(generate_case(kSeed, i));
    const std::string first = run_dump(kSeed, i);
    const std::string second = run_dump(kSeed, i);
    ASSERT_FALSE(first.empty()) << "opto_fuzz --dump produced nothing";
    EXPECT_EQ(first, in_process) << "case " << i;
    EXPECT_EQ(first, second) << "case " << i;
  }
}

TEST(Generator, DistilledCaseReloadsAsAPassScenario) {
  // What --distill writes must load back through the scenario loader as
  // the same behavior: a clean case with a kill.
  const std::string out = ::testing::TempDir() + "opto_fuzz_distill_" +
                          std::to_string(getpid());
  ASSERT_NE(run_fuzz("--seed 3 --cases 200 --distill kill --out " + out)
                .find("distilled 'kill'"),
            std::string::npos);
  const std::string path = out + "/distilled_kill.json";
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  dsl::ScenarioSpec spec;
  dsl::DslError error;
  ASSERT_TRUE(dsl::load_scenario_text(text.str(), path, spec, error))
      << error.format();
  ASSERT_EQ(spec.mode, dsl::ScenarioMode::Pass);
  const FuzzCase fuzz = dsl::to_fuzz_case(spec);
  ASSERT_TRUE(well_formed(fuzz));
  const DiffReport report = diff_case(fuzz);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_GT(report.metrics.killed, 0u);
  std::filesystem::remove_all(out);
}
#endif  // OPTO_FUZZ_BIN

TEST(Generator, MiniFuzzRunsClean) {
  // A small always-on differential sweep: every generated case must pass
  // determinism, invariant, and (when fault-free) reference checks. The
  // CI smoke job and nightly campaign scale this same loop up.
  std::uint64_t with_contention = 0, with_rwa_blocking = 0;
  for (std::uint64_t i = 0; i < 150; ++i) {
    const FuzzCase fuzz = generate_case(kSeed, i);
    const DiffReport report = diff_case(fuzz);
    EXPECT_TRUE(report.ok())
        << "case " << i << ":\n" << report.summary();
    if (report.metrics.contentions > 0) ++with_contention;
    if (report.rwa_blocked > 0) ++with_rwa_blocking;
  }
  // The generator would be useless if its cases never collided, and the
  // RWA stage would be a tautology if no strategy ever had to retry.
  EXPECT_GE(with_contention, 30u);
  EXPECT_GE(with_rwa_blocking, 20u);
}

}  // namespace
}  // namespace opto::testlib
