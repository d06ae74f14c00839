// opto_fuzz — randomized differential fuzzing driver.
//
// Every case on disk is a pass-mode scenario (schema "opto.scenario/1"):
// the fuzzer writes canonical_text(dsl::from_fuzz_case(c)) and replays
// any .opto or .json pass scenario through dsl::to_fuzz_case.
//
// Modes (mutually exclusive, first match wins):
//   --replay FILE      re-run one saved case, print the diff verdict
//   --replay-dir DIR   re-run every *.opto / *.json case in DIR (the
//                      committed anchors are examples/repros/)
//   --dump INDEX       print case INDEX of the seed's stream as its
//                      canonical scenario JSON (used by the cross-process
//                      determinism test)
//   --dsl              fuzz the scenario grammar: --cases generated
//                      programs must parse + canonical-round-trip, and
//                      the same count of mutated programs, and of mutated
//                      canonical JSON documents, must round-trip or fail
//                      with diagnostics instead of crashing
//   --distill KIND     search the stream for a case exhibiting KIND
//                      (kill | truncate | retune | fault | corrupt | rwa),
//                      shrink it while preserving the behavior, write it
//                      to --out — this is how the anchors in
//                      examples/repros/ are made
//   (default)          fuzz: generate --cases cases from --seed, diff
//                      each, shrink and save any failure to --out
//
// Exit codes: 0 all clean, 1 divergence found (or behavior not found,
// for --distill), 2 usage / file errors.
#include <algorithm>
#include <cctype>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "opto/dsl/canonical.hpp"
#include "opto/dsl/runner.hpp"
#include "opto/dsl/validate.hpp"
#include "opto/testlib/differ.hpp"
#include "opto/testlib/dsl_gen.hpp"
#include "opto/testlib/fuzz_case.hpp"
#include "opto/testlib/generator.hpp"
#include "opto/testlib/shrink.hpp"
#include "opto/util/cli.hpp"

namespace {

using opto::testlib::CasePredicate;
using opto::testlib::DiffReport;
using opto::testlib::FuzzCase;
using opto::testlib::GenOptions;
using opto::testlib::ShrinkOptions;
using opto::testlib::ShrinkStats;

std::optional<std::uint64_t> parse_u64(const std::string& text) {
  if (text.empty()) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || end != text.c_str() + text.size()) return std::nullopt;
  return value;
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

bool write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << bytes;
  return static_cast<bool>(out);
}

/// The bytes a saved case is written as: its pass-mode scenario dump.
std::string case_text(const FuzzCase& fuzz) {
  return opto::dsl::canonical_text(opto::dsl::from_fuzz_case(fuzz));
}

/// Running tallies of what the generated stream actually exercised, so a
/// "clean" campaign can show it covered the interesting regimes rather
/// than silently generating trivia.
struct Coverage {
  std::uint64_t cases = 0;
  std::uint64_t with_kills = 0;
  std::uint64_t with_truncations = 0;
  std::uint64_t with_retunes = 0;
  std::uint64_t with_fault_kills = 0;
  std::uint64_t with_corruption = 0;
  std::uint64_t with_contention = 0;
  std::uint64_t priority_rule = 0;
  std::uint64_t with_conversion = 0;
  std::uint64_t with_faults = 0;
  std::uint64_t multi_wavelength = 0;
  std::uint64_t reference_checked = 0;
  /// RWA strategy-stage regimes: cases whose endpoints fed the strategy
  /// zoo at all, and cases where at least one strategy blocked a request
  /// in round 1 (the retry path of the round driver).
  std::uint64_t rwa_checked = 0;
  std::uint64_t rwa_blocking = 0;

  void add(const FuzzCase& fuzz, const DiffReport& report) {
    ++cases;
    if (report.metrics.killed > 0) ++with_kills;
    if (report.metrics.truncated > 0) ++with_truncations;
    if (report.metrics.retunes > 0) ++with_retunes;
    if (report.metrics.fault_kills > 0) ++with_fault_kills;
    if (report.metrics.corrupted > 0) ++with_corruption;
    if (report.metrics.contentions > 0) ++with_contention;
    if (fuzz.rule == opto::ContentionRule::Priority) ++priority_rule;
    if (fuzz.conversion != opto::ConversionMode::None) ++with_conversion;
    if (fuzz.has_faults) ++with_faults;
    if (fuzz.bandwidth > 1) ++multi_wavelength;
    if (!fuzz.has_faults || !fuzz.faults.any_fault()) ++reference_checked;
    if (report.rwa_requests > 0) ++rwa_checked;
    if (report.rwa_blocked > 0) ++rwa_blocking;
  }

  void print() const {
    std::printf(
        "coverage: %" PRIu64 " cases | kills %" PRIu64 " | truncations %"
        PRIu64 " | retunes %" PRIu64 " | fault-kills %" PRIu64
        " | corruption %" PRIu64 "\n"
        "          contention %" PRIu64 " | priority-rule %" PRIu64
        " | conversion %" PRIu64 " | fault-plans %" PRIu64
        " | multi-lambda %" PRIu64 " | vs-reference %" PRIu64 "\n"
        "          rwa-checked %" PRIu64 " | rwa-blocking %" PRIu64 "\n",
        cases, with_kills, with_truncations, with_retunes, with_fault_kills,
        with_corruption, with_contention, priority_rule, with_conversion,
        with_faults, multi_wavelength, reference_checked, rwa_checked,
        rwa_blocking);
  }
};

/// The behavior a --distill run searches for and preserves while
/// shrinking: a case shows it when the count is positive. Every
/// distilled anchor must also diff clean — the anchors pin agreed-upon
/// behavior, not open disagreements.
std::optional<CasePredicate> behavior_predicate(const std::string& kind) {
  using Count = std::uint64_t (*)(const DiffReport&);
  static const std::map<std::string, Count> kCounts = {
      {"kill", [](const DiffReport& r) { return r.metrics.killed; }},
      {"truncate",
       [](const DiffReport& r) { return r.metrics.truncated_arrivals; }},
      {"retune", [](const DiffReport& r) { return r.metrics.retunes; }},
      {"fault", [](const DiffReport& r) { return r.metrics.fault_kills; }},
      {"corrupt",
       [](const DiffReport& r) { return r.metrics.corrupted_arrivals; }},
      // Some strategy's round-1 band is too tight: pins the round
      // driver's retry path and the strategy replay invariants.
      {"rwa", [](const DiffReport& r) { return r.rwa_blocked; }},
  };
  const auto it = kCounts.find(kind);
  if (it == kCounts.end()) return std::nullopt;
  const Count count = it->second;
  return CasePredicate{[count](const FuzzCase& fuzz) {
    const DiffReport report = opto::testlib::diff_case(fuzz);
    return report.ok() && count(report) > 0;
  }};
}

int replay_one(const std::string& path, bool strict_bytes, bool quiet) {
  const auto bytes = read_file(path);
  if (!bytes) {
    std::fprintf(stderr, "opto_fuzz: cannot read %s\n", path.c_str());
    return 2;
  }
  opto::dsl::ScenarioSpec spec;
  opto::dsl::DslError load_error;
  if (!opto::dsl::load_scenario_text(*bytes, path, spec, load_error)) {
    std::fprintf(stderr, "opto_fuzz: %s\n", load_error.format().c_str());
    return 2;
  }
  if (spec.mode != opto::dsl::ScenarioMode::Pass) {
    std::fprintf(stderr, "opto_fuzz: %s: not a pass-mode scenario\n",
                 path.c_str());
    return 2;
  }
  const FuzzCase fuzz = opto::dsl::to_fuzz_case(spec);
  std::string error;
  if (!opto::testlib::well_formed(fuzz, &error)) {
    std::fprintf(stderr, "opto_fuzz: %s: %s\n", path.c_str(), error.c_str());
    return 2;
  }
  if (strict_bytes && std::filesystem::path(path).extension() == ".json" &&
      opto::dsl::canonical_text(spec) != *bytes) {
    std::fprintf(stderr,
                 "opto_fuzz: %s is not in canonical form (rewrite it with "
                 "opto_run --dump %s --out %s)\n",
                 path.c_str(), path.c_str(), path.c_str());
    return 2;
  }
  const DiffReport report = opto::testlib::diff_case(fuzz);
  if (!report.ok()) {
    std::printf("FAIL %s\n%s", path.c_str(), report.summary().c_str());
    return 1;
  }
  if (!quiet)
    std::printf("ok   %s (delivered %" PRIu64 ", killed %" PRIu64
                ", truncated arrivals %" PRIu64 ", retunes %" PRIu64
                ", fault kills %" PRIu64 ", corrupted arrivals %" PRIu64
                ")\n",
                path.c_str(), report.metrics.delivered,
                report.metrics.killed, report.metrics.truncated_arrivals,
                report.metrics.retunes, report.metrics.fault_kills,
                report.metrics.corrupted_arrivals);
  return 0;
}

int replay_dir(const std::string& dir, bool strict_bytes, bool quiet) {
  namespace fs = std::filesystem;
  std::error_code ec;
  std::vector<std::string> files;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const fs::path& file = entry.path();
    if (entry.is_regular_file() &&
        (file.extension() == ".opto" || file.extension() == ".json"))
      files.push_back(file.string());
  }
  if (ec) {
    std::fprintf(stderr, "opto_fuzz: cannot list %s: %s\n", dir.c_str(),
                 ec.message().c_str());
    return 2;
  }
  if (files.empty()) {
    std::fprintf(stderr, "opto_fuzz: no *.opto or *.json cases in %s\n",
                 dir.c_str());
    return 2;
  }
  std::sort(files.begin(), files.end());
  int worst = 0;
  for (const std::string& file : files)
    worst = std::max(worst, replay_one(file, strict_bytes, quiet));
  if (worst == 0 && !quiet)
    std::printf("replay clean: %zu case(s)\n", files.size());
  return worst;
}

std::string sanitize_component(std::string text) {
  for (char& c : text)
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  return text;
}

/// Grammar fuzzing (--dsl): per case, one *generated* program that must
/// parse, validate, and canonical-dump to a fixed point, plus one
/// *mutated* program and one mutated copy of the program's canonical
/// JSON, each of which must terminate in either a clean load (then also a
/// fixed point) or a diagnostic — never a crash, hang, or leak (the
/// sanitizer legs enforce the last part).
int dsl_fuzz(std::uint64_t seed, std::uint64_t cases, const std::string& out,
             long long progress_every, bool quiet) {
  std::uint64_t mutants_accepted = 0, mutants_rejected = 0, failures = 0;

  const auto save_repro = [&](std::uint64_t index, const std::string& text,
                              const std::string& why,
                              const char* extension = ".opto") {
    ++failures;
    const std::string path = out + "/dsl_repro_seed" + std::to_string(seed) +
                             "_case" + std::to_string(index) + extension;
    std::printf("DSL FAILURE at seed %" PRIu64 " case %" PRIu64 ": %s\n",
                seed, index, why.c_str());
    if (!write_file(path, text))
      std::fprintf(stderr, "opto_fuzz: cannot write %s\n", path.c_str());
    else
      std::printf("  program saved -> %s\n", path.c_str());
  };

  /// Dump → reload the dump as canonical JSON → dump again; both dumps
  /// must be byte-identical. Returns false (with `why`) on any step.
  const auto fixed_point = [](const opto::dsl::ScenarioSpec& spec,
                              std::string& why) {
    const std::string dump = opto::dsl::canonical_text(spec);
    opto::dsl::ScenarioSpec reloaded;
    opto::dsl::DslError error;
    if (!opto::dsl::load_scenario_text(dump, "<dump>", reloaded, error)) {
      why = "canonical dump does not reload: " + error.format();
      return false;
    }
    if (opto::dsl::canonical_text(reloaded) != dump) {
      why = "parse -> dump -> parse is not a fixed point";
      return false;
    }
    return true;
  };

  for (std::uint64_t i = 0; i < cases; ++i) {
    const std::string program = opto::testlib::generate_program(seed, i);
    opto::dsl::ScenarioSpec spec;
    opto::dsl::DslError error;
    std::string why;
    if (!opto::dsl::load_opto_text(program, "<generated>", spec, error)) {
      save_repro(i, program, "generated program rejected: " + error.format());
    } else if (!fixed_point(spec, why)) {
      save_repro(i, program, why);
    } else {
      const std::string json = opto::testlib::mutate_text(
          opto::dsl::canonical_text(spec), seed, i);
      opto::dsl::ScenarioSpec lowered;
      if (opto::dsl::load_scenario_text(json, "<mutated.json>", lowered,
                                        error)) {
        if (!fixed_point(lowered, why))
          save_repro(i, json, "mutated JSON loaded but " + why, ".json");
      } else if (error.message.empty()) {
        save_repro(i, json, "JSON rejection carried an empty diagnostic",
                   ".json");
      }
    }

    const std::string mutant = opto::testlib::mutate_program(seed, i);
    opto::dsl::ScenarioSpec mutated;
    opto::dsl::DslError mutant_error;
    if (opto::dsl::load_opto_text(mutant, "<mutated>", mutated,
                                  mutant_error)) {
      ++mutants_accepted;
      if (!fixed_point(mutated, why))
        save_repro(i, mutant, "mutated program parsed but " + why);
    } else {
      ++mutants_rejected;
      if (mutant_error.message.empty())
        save_repro(i, mutant, "rejection carried an empty diagnostic");
    }

    if (progress_every > 0 &&
        (i + 1) % static_cast<std::uint64_t>(progress_every) == 0)
      std::printf("... %" PRIu64 "/%" PRIu64 " programs, %" PRIu64
                  " failure(s)\n",
                  i + 1, cases, failures);
  }

  if (!quiet)
    std::printf("dsl coverage: %" PRIu64 " generated (all must be valid) | "
                "%" PRIu64 " mutants accepted | %" PRIu64
                " mutants rejected with diagnostics\n",
                cases, mutants_accepted, mutants_rejected);
  if (failures > 0) {
    std::printf("%" PRIu64 " DSL failure(s) found\n", failures);
    return 1;
  }
  if (!quiet)
    std::printf("dsl clean: %" PRIu64 " case(s), seed %" PRIu64 "\n", cases,
                seed);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  opto::CliParser cli(
      "opto_fuzz",
      "Differential fuzzer: generated cases run through the production "
      "simulator (twice), the invariant validators, and the reference "
      "engine; disagreements are shrunk to minimal pass-scenario "
      "reproducers");
  const std::string* seed_text =
      cli.add_string("seed", "1", "generator stream seed (decimal uint64)");
  const long long* cases = cli.add_int("cases", 1000, "cases to generate");
  const std::string* replay =
      cli.add_string("replay", "", "re-run one saved case file");
  const std::string* replay_dir_flag = cli.add_string(
      "replay-dir", "", "re-run every *.opto / *.json case in a dir");
  const long long* dump = cli.add_int(
      "dump", -1, "print case INDEX of the stream as canonical scenario JSON");
  const bool* dsl = cli.add_flag(
      "dsl", "fuzz the scenario grammar instead of the simulator: generated "
             "programs must round-trip, mutated ones must fail cleanly");
  const std::string* distill = cli.add_string(
      "distill", "",
      "find + shrink a clean case showing a behavior: kill | truncate | "
      "retune | fault | corrupt | rwa");
  const std::string* out =
      cli.add_string("out", "fuzz-out", "directory for repro files");
  const long long* stop_after =
      cli.add_int("stop-after", 1, "stop after this many divergences");
  const long long* shrink_budget = cli.add_int(
      "shrink-budget", 4000, "max predicate evaluations while shrinking");
  const long long* progress_every = cli.add_int(
      "progress-every", 0, "print progress every N cases (0 = off)");
  const bool* strict_bytes = cli.add_flag(
      "strict-bytes", "replay: require .json files to be canonical bytes");
  const bool* quiet = cli.add_flag("quiet", "only print failures");
  // Generator knobs (defaults mirror GenOptions).
  const long long* max_nodes =
      cli.add_int("max-nodes", 20, "topology size cap (2..65536)");
  const long long* max_paths = cli.add_int("max-paths", 16, "path count cap");
  const long long* max_bandwidth =
      cli.add_int("max-bandwidth", 4, "wavelength count cap");
  const long long* max_length = cli.add_int("max-length", 9, "worm flit cap");
  const double* fault_prob =
      cli.add_double("fault-prob", 0.25, "P(case carries a fault plan)");
  const double* conversion_prob = cli.add_double(
      "conversion-prob", 0.45, "P(case uses converting couplers)");
  if (!cli.parse(argc, argv)) return 2;

  const auto seed = parse_u64(*seed_text);
  if (!seed) {
    std::fprintf(stderr, "opto_fuzz: --seed must be a decimal uint64\n");
    return 2;
  }
  GenOptions gen;
  // A saved case is an explicit-topology scenario: 2..65,536 nodes.
  gen.max_nodes =
      static_cast<opto::NodeId>(std::clamp(*max_nodes, 2LL, 65536LL));
  gen.max_paths = static_cast<std::uint32_t>(std::max(0LL, *max_paths));
  gen.max_bandwidth =
      static_cast<std::uint16_t>(std::clamp(*max_bandwidth, 1LL, 1024LL));
  gen.max_length = static_cast<std::uint32_t>(std::max(1LL, *max_length));
  gen.fault_probability = std::clamp(*fault_prob, 0.0, 1.0);
  gen.conversion_probability = std::clamp(*conversion_prob, 0.0, 1.0);
  ShrinkOptions shrink;
  shrink.max_checks =
      static_cast<std::uint32_t>(std::clamp(*shrink_budget, 1LL, 1000000LL));

  if (!replay->empty()) return replay_one(*replay, *strict_bytes, *quiet);
  if (!replay_dir_flag->empty())
    return replay_dir(*replay_dir_flag, *strict_bytes, *quiet);

  if (*dump >= 0) {
    const FuzzCase fuzz = opto::testlib::generate_case(
        *seed, static_cast<std::uint64_t>(*dump), gen);
    std::fputs(case_text(fuzz).c_str(), stdout);
    return 0;
  }

  std::error_code ec;
  std::filesystem::create_directories(*out, ec);  // best-effort; write checks

  if (*dsl)
    return dsl_fuzz(*seed, static_cast<std::uint64_t>(std::max(0LL, *cases)),
                    *out, *progress_every, *quiet);

  if (!distill->empty()) {
    const auto predicate = behavior_predicate(*distill);
    if (!predicate) {
      std::fprintf(stderr,
                   "opto_fuzz: unknown --distill behavior '%s' (want kill | "
                   "truncate | retune | fault | corrupt | rwa)\n",
                   distill->c_str());
      return 2;
    }
    for (std::uint64_t i = 0; i < static_cast<std::uint64_t>(*cases); ++i) {
      FuzzCase fuzz = opto::testlib::generate_case(*seed, i, gen);
      if (!(*predicate)(fuzz)) continue;
      ShrinkStats stats;
      const FuzzCase small = opto::testlib::shrink_case(
          std::move(fuzz), *predicate, shrink, &stats);
      const std::string path = *out + "/distilled_" +
                               sanitize_component(*distill) + ".json";
      if (!write_file(path, case_text(small))) {
        std::fprintf(stderr, "opto_fuzz: cannot write %s\n", path.c_str());
        return 2;
      }
      std::printf("distilled '%s' from case %" PRIu64 " -> %s "
                  "(%u checks, %u improvements)\n",
                  distill->c_str(), i, path.c_str(), stats.checks,
                  stats.improvements);
      return 0;
    }
    std::fprintf(stderr,
                 "opto_fuzz: no case in %lld tries showed '%s' — raise "
                 "--cases or loosen generator caps\n",
                 *cases, distill->c_str());
    return 1;
  }

  // Default mode: the fuzz loop.
  Coverage coverage;
  std::uint64_t failures = 0;
  for (std::uint64_t i = 0; i < static_cast<std::uint64_t>(*cases); ++i) {
    const FuzzCase fuzz = opto::testlib::generate_case(*seed, i, gen);
    const DiffReport report = opto::testlib::diff_case(fuzz);
    coverage.add(fuzz, report);
    if (*progress_every > 0 &&
        (i + 1) % static_cast<std::uint64_t>(*progress_every) == 0)
      std::printf("... %" PRIu64 "/%lld cases, %" PRIu64 " failure(s)\n",
                  i + 1, *cases, failures);
    if (report.ok()) continue;

    ++failures;
    std::printf("DIVERGENCE at seed %" PRIu64 " case %" PRIu64 ":\n%s",
                *seed, i, report.summary().c_str());
    const CasePredicate still_failing = [](const FuzzCase& candidate) {
      return !opto::testlib::diff_case(candidate).ok();
    };
    ShrinkStats stats;
    const FuzzCase small =
        opto::testlib::shrink_case(fuzz, still_failing, shrink, &stats);
    std::ostringstream name;
    name << *out << "/repro_seed" << *seed << "_case" << i << ".json";
    if (!write_file(name.str(), case_text(small))) {
      std::fprintf(stderr, "opto_fuzz: cannot write %s\n",
                   name.str().c_str());
      return 2;
    }
    std::printf("  shrunk (%u checks, %u improvements) -> %s\n"
                "  replay with: opto_fuzz --replay %s\n",
                stats.checks, stats.improvements, name.str().c_str(),
                name.str().c_str());
    if (failures >= static_cast<std::uint64_t>(std::max(1LL, *stop_after)))
      break;
  }

  if (!*quiet) coverage.print();
  if (failures > 0) {
    std::printf("%" PRIu64 " divergence(s) found\n", failures);
    return 1;
  }
  if (!*quiet)
    std::printf("clean: %" PRIu64 " case(s), seed %" PRIu64 "\n",
                coverage.cases, *seed);
  return 0;
}
