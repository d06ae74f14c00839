// Tiny declarative command-line parser for examples and benches.
//
//   CliParser cli("quickstart", "Route a permutation on a torus");
//   auto side = cli.add_int("side", 8, "torus side length");
//   auto rule = cli.add_string("rule", "serve-first", "contention rule");
//   if (!cli.parse(argc, argv)) return 1;   // prints usage on --help/error
//   if (!cli.check_range("side", 3, 512)) return 1;
//   use(*side, *rule);
//
// Flags are --name=value or --name value. Unknown flags are errors.
#pragma once

#include <memory>
#include <string>
#include <vector>

namespace opto {

class CliParser {
 public:
  CliParser(std::string program, std::string description);
  ~CliParser();  // out-of-line: Option is incomplete here

  /// The returned pointers stay valid for the parser's lifetime and hold
  /// the default until parse() overwrites them.
  const long long* add_int(const std::string& name, long long default_value,
                           const std::string& help);
  const double* add_double(const std::string& name, double default_value,
                           const std::string& help);
  const std::string* add_string(const std::string& name,
                                std::string default_value,
                                const std::string& help);
  const bool* add_flag(const std::string& name, const std::string& help);

  /// Returns false if parsing failed or --help was requested (usage is
  /// printed either way).
  bool parse(int argc, const char* const* argv);

  /// True when int flag `name` holds a value in [lo, hi]. Otherwise
  /// prints "<program>: --<name> must be in <lo>..<hi> (got <value>)" and
  /// the usage, and returns false. Check before narrowing the value.
  bool check_range(const std::string& name, long long lo, long long hi);

  void print_usage() const;

 private:
  struct Option;
  Option* find(const std::string& name);

  std::string program_;
  std::string description_;
  std::vector<std::unique_ptr<Option>> options_;
};

}  // namespace opto
