#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "opto/util/cli.hpp"

namespace opto {
namespace {

TEST(Cli, DefaultsSurviveEmptyArgv) {
  CliParser cli("prog", "test");
  const auto* n = cli.add_int("n", 7, "count");
  const auto* rate = cli.add_double("rate", 0.5, "rate");
  const auto* name = cli.add_string("name", "x", "label");
  const auto* flag = cli.add_flag("verbose", "noise");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_EQ(*n, 7);
  EXPECT_DOUBLE_EQ(*rate, 0.5);
  EXPECT_EQ(*name, "x");
  EXPECT_FALSE(*flag);
}

TEST(Cli, ParsesEqualsAndSpaceForms) {
  CliParser cli("prog", "test");
  const auto* n = cli.add_int("n", 0, "count");
  const auto* rate = cli.add_double("rate", 0.0, "rate");
  const char* argv[] = {"prog", "--n=13", "--rate", "2.25"};
  ASSERT_TRUE(cli.parse(4, argv));
  EXPECT_EQ(*n, 13);
  EXPECT_DOUBLE_EQ(*rate, 2.25);
}

TEST(Cli, FlagWithoutValueIsTrue) {
  CliParser cli("prog", "test");
  const auto* flag = cli.add_flag("fast", "speed");
  const char* argv[] = {"prog", "--fast"};
  ASSERT_TRUE(cli.parse(2, argv));
  EXPECT_TRUE(*flag);
}

TEST(Cli, FlagExplicitFalse) {
  CliParser cli("prog", "test");
  const auto* flag = cli.add_flag("fast", "speed");
  const char* argv[] = {"prog", "--fast=false"};
  ASSERT_TRUE(cli.parse(2, argv));
  EXPECT_FALSE(*flag);
}

TEST(Cli, CheckRangeAcceptsOnlyTheClosedRange) {
  CliParser cli("prog", "test");
  cli.add_int("n", 0, "count");
  for (const auto& [text, inside] :
       std::vector<std::pair<const char*, bool>>{{"--n=2", false},
                                                 {"--n=3", true},
                                                 {"--n=9", true},
                                                 {"--n=10", false},
                                                 {"--n=-4", false}}) {
    const char* argv[] = {"prog", text};
    ASSERT_TRUE(cli.parse(2, argv));
    EXPECT_EQ(cli.check_range("n", 3, 9), inside) << text;
  }
}

TEST(Cli, UsageShowsDefaultsAfterParse) {
  CliParser cli("prog", "test");
  cli.add_int("size", 16, "nodes");
  cli.add_double("rate", 0.5, "rate");
  cli.add_string("topology", "ring", "family");
  cli.add_flag("csv", "emit CSV");
  const char* argv[] = {"prog", "--size", "40", "--rate=2",
                        "--topology", "hypercube", "--csv"};
  ASSERT_TRUE(cli.parse(7, argv));
  testing::internal::CaptureStderr();
  cli.print_usage();
  const std::string usage = testing::internal::GetCapturedStderr();
  EXPECT_NE(usage.find("nodes (default: 16)"), std::string::npos) << usage;
  EXPECT_NE(usage.find("rate (default: 0.500000)"), std::string::npos)
      << usage;
  EXPECT_NE(usage.find("family (default: ring)"), std::string::npos) << usage;
  EXPECT_NE(usage.find("emit CSV (default: false)"), std::string::npos)
      << usage;
  EXPECT_EQ(usage.find("hypercube"), std::string::npos) << usage;
}

TEST(Cli, UnknownFlagFails) {
  CliParser cli("prog", "test");
  const char* argv[] = {"prog", "--mystery=1"};
  EXPECT_FALSE(cli.parse(2, argv));
}

TEST(Cli, BadIntFails) {
  CliParser cli("prog", "test");
  cli.add_int("n", 0, "count");
  const char* argv[] = {"prog", "--n=abc"};
  EXPECT_FALSE(cli.parse(2, argv));
}

TEST(Cli, HelpReturnsFalse) {
  CliParser cli("prog", "test");
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(cli.parse(2, argv));
}

TEST(Cli, MissingValueFails) {
  CliParser cli("prog", "test");
  cli.add_int("n", 0, "count");
  const char* argv[] = {"prog", "--n"};
  EXPECT_FALSE(cli.parse(2, argv));
}

TEST(Cli, PositionalArgumentRejected) {
  CliParser cli("prog", "test");
  const char* argv[] = {"prog", "stray"};
  EXPECT_FALSE(cli.parse(2, argv));
}

}  // namespace
}  // namespace opto
