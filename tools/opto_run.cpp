// opto_run — scenario DSL driver: text in, simulation out.
//
// Modes (mutually exclusive, first match wins):
//   --check FILE     parse + validate only; print "ok FILE" or the
//                    file:line:col diagnostic (exit 1)
//   --dump FILE      parse + validate, print the canonical JSON normal
//                    form ("opto.scenario/1") to stdout or --out
//   --run FILE       run the scenario (simulator / streaming engine /
//                    single pass per its mode), write the model-result
//                    JSON ("opto.scenario.result/1") to stdout or --out
//
// FILE may be a .opto program or its canonical JSON dump — the loader
// (dsl::load_scenario_file) auto-detects (first non-space byte '{' =
// JSON). A run builds its objects with the same dsl/runner.hpp builders
// the anchor benches use, and installs the standard BenchRecord-at-exit
// hook under the scenario label, so OPTO_RESULTS_DIR captures
// counters/phases exactly like the benches.
//
// Exit codes: 0 ok, 1 parse/validation/run failure, 2 usage / IO errors.
#include <cstdio>
#include <fstream>
#include <string>

#include "opto/dsl/canonical.hpp"
#include "opto/dsl/runner.hpp"
#include "opto/dsl/validate.hpp"
#include "opto/obs/bench_record.hpp"
#include "opto/util/cli.hpp"

namespace {

int write_output(const std::string& out, const std::string& text) {
  if (out.empty()) {
    std::fputs(text.c_str(), stdout);
    return 0;
  }
  std::ofstream file(out, std::ios::binary | std::ios::trunc);
  file << text;
  if (!file) {
    std::fprintf(stderr, "opto_run: cannot write %s\n", out.c_str());
    return 2;
  }
  return 0;
}

/// Loads FILE (.opto text or canonical JSON) into a validated spec.
/// Returns 0/1/2 like main; on success `spec` is filled.
int load(const std::string& path, opto::dsl::ScenarioSpec& spec) {
  opto::dsl::DslError error;
  switch (opto::dsl::load_scenario_file(path, spec, error)) {
    case opto::dsl::LoadStatus::Ok: return 0;
    case opto::dsl::LoadStatus::Unreadable:
      std::fprintf(stderr, "opto_run: cannot read %s\n", path.c_str());
      return 2;
    case opto::dsl::LoadStatus::Invalid: break;
  }
  std::fprintf(stderr, "%s\n", error.format().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  opto::CliParser cli("opto_run",
                      "Scenario DSL driver: parse/validate .opto files, dump "
                      "their canonical JSON, or run them through the "
                      "simulator / streaming engine");
  const std::string* check =
      cli.add_string("check", "", "parse + validate FILE, report diagnostics");
  const std::string* dump =
      cli.add_string("dump", "", "print FILE's canonical JSON normal form");
  const std::string* run =
      cli.add_string("run", "", "run FILE, print the model-result JSON");
  const std::string* out =
      cli.add_string("out", "", "write the JSON output here instead of stdout");
  if (!cli.parse(argc, argv)) return 2;

  if (!check->empty()) {
    opto::dsl::ScenarioSpec spec;
    const int rc = load(*check, spec);
    if (rc == 0) std::printf("ok %s (scenario \"%s\")\n", check->c_str(),
                             spec.name.c_str());
    return rc;
  }

  if (!dump->empty()) {
    opto::dsl::ScenarioSpec spec;
    const int rc = load(*dump, spec);
    if (rc != 0) return rc;
    return write_output(*out, opto::dsl::canonical_text(spec));
  }

  if (!run->empty()) {
    opto::dsl::ScenarioSpec spec;
    const int rc = load(*run, spec);
    if (rc != 0) return rc;
    opto::obs::install_bench_record_at_exit(spec.label);
    opto::JsonValue result;
    std::string error;
    if (!opto::dsl::run_scenario(spec, result, error)) {
      std::fprintf(stderr, "opto_run: %s: %s\n", run->c_str(), error.c_str());
      return 1;
    }
    return write_output(*out, opto::dsl::result_text(result));
  }

  std::fprintf(stderr,
               "opto_run: pick a mode: --check FILE | --dump FILE | --run "
               "FILE\n");
  return 2;
}
