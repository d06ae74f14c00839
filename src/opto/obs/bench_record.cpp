#include "opto/obs/bench_record.hpp"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <thread>

#include "opto/obs/obs.hpp"
#include "opto/rng/philox.hpp"
#include "opto/util/json.hpp"
#include "opto/util/string_util.hpp"

namespace opto::obs {

namespace {

std::uint64_t counter_value(const std::vector<CounterSnapshot>& counters,
                            std::string_view name) {
  for (const auto& counter : counters)
    if (counter.name == name) return counter.value;
  return 0;
}

const PhaseSnapshot* find_phase(const std::vector<PhaseSnapshot>& phases,
                                std::string_view name) {
  for (const auto& phase : phases)
    if (phase.name == name) return &phase;
  return nullptr;
}

unsigned configured_threads() {
  if (const char* env = std::getenv("OPTO_THREADS")) {
    const long value = std::strtol(env, nullptr, 10);
    if (value > 0) return static_cast<unsigned>(value);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

double env_repro_scale() {
  if (const char* env = std::getenv("REPRO_SCALE")) {
    char* end = nullptr;
    const double value = std::strtod(env, &end);
    if (end != env && value > 0.0) return value;
  }
  return 1.0;
}

}  // namespace

void write_bench_record(std::ostream& os, const std::string& label) {
  const auto counter_list = counters();
  const auto phase_list = phases();
  const auto note_map = annotations();

  JsonWriter w(os);
  w.begin_object();
  w.key("schema");
  w.value(kBenchRecordSchema);
  w.key("schema_version");
  w.value(std::int64_t{kBenchRecordSchemaVersion});
  w.key("label");
  w.value(slugify(label));

  w.key("env");
  w.begin_object();
  w.key("git_sha");
  const char* sha = std::getenv("OPTO_GIT_SHA");
  w.value(sha != nullptr && *sha != '\0' ? sha : "unknown");
  w.key("threads");
  w.value(static_cast<std::uint64_t>(configured_threads()));
  w.key("obs");
  w.value(enabled());
  w.key("repro_scale");
  w.value(env_repro_scale());
  // Provenance for perf numbers: which protocol RNG produced the draws.
  // Dropped by normalize_for_determinism like the rest of env — results
  // must not depend on it.
  w.key("rng");
  w.value(kProtocolRngBackend);
  w.end_object();

  w.key("annotations");
  w.begin_object();
  for (const auto& [key, value] : note_map) {
    w.key(key);
    w.value(value);
  }
  w.end_object();

  w.key("counters");
  w.begin_object();
  for (const auto& counter : counter_list) {
    w.key(counter.name);
    w.value(counter.value);
  }
  w.end_object();

  w.key("phases");
  w.begin_object();
  for (const auto& phase : phase_list) {
    w.key(phase.name);
    w.begin_object();
    w.key("calls");
    w.value(phase.calls);
    w.key("wall_ns");
    w.value(phase.wall_ns);
    w.key("cpu_ns");
    w.value(phase.cpu_ns);
    w.end_object();
  }
  w.end_object();

  // Derived metrics — the comparable surface. Timing-based rates use the
  // sim.pass phase (inclusive wall time across all passes, all threads);
  // bench_compare skips them below its min-run noise floor, keyed on
  // measured_wall_ns.
  const std::uint64_t worm_steps = counter_value(counter_list, "sim.worm_steps");
  const std::uint64_t probes =
      counter_value(counter_list, "sim.registry_probes");
  const std::uint64_t hits = counter_value(counter_list, "sim.registry_hits");
  const std::uint64_t passes = counter_value(counter_list, "sim.passes");
  const std::uint64_t fault_losses =
      counter_value(counter_list, "protocol.fault_losses");
  const std::uint64_t contention_losses =
      counter_value(counter_list, "protocol.contention_losses");
  const PhaseSnapshot* pass_phase = find_phase(phase_list, "sim.pass");
  const std::uint64_t pass_wall_ns =
      pass_phase != nullptr ? pass_phase->wall_ns : 0;

  w.key("metrics");
  w.begin_object();
  w.key("wall_s");
  w.value(process_wall_seconds());
  w.key("measured_wall_ns");
  w.value(pass_wall_ns);
  if (pass_wall_ns > 0 && worm_steps > 0) {
    w.key("worm_steps_per_s");
    w.value(static_cast<double>(worm_steps) /
            (static_cast<double>(pass_wall_ns) * 1e-9));
  }
  if (probes > 0) {
    w.key("registry_hit_rate");
    w.value(static_cast<double>(hits) / static_cast<double>(probes));
  }
  if (fault_losses + contention_losses > 0) {
    w.key("fault_loss_share");
    w.value(static_cast<double>(fault_losses) /
            static_cast<double>(fault_losses + contention_losses));
  }
  if (passes > 0) {
    w.key("allocs_per_pass");
    w.value(static_cast<double>(alloc_count()) /
            static_cast<double>(passes));
  }
  // Gauges (obs::set_metric) land beside the derived metrics, in name
  // order. The engine's blocking probability and latency quantiles
  // arrive this way.
  for (const auto& metric : metrics()) {
    w.key(metric.name);
    w.value(metric.value);
  }
  w.end_object();

  w.end_object();
  os << '\n';
}

bool write_bench_record_file(const std::string& label) {
  if (!enabled()) return false;
  const char* dir = std::getenv("OPTO_RESULTS_DIR");
  if (dir == nullptr || *dir == '\0') return false;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "OPTO_RESULTS_DIR: cannot create '%s': %s\n", dir,
                 ec.message().c_str());
    return false;
  }
  const std::string path =
      (std::filesystem::path(dir) / ("benchrecord_" + slugify(label) + ".json"))
          .string();
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write bench record '%s'\n", path.c_str());
    return false;
  }
  write_bench_record(out, label);
  return true;
}

namespace {

std::mutex g_at_exit_mutex;
std::string g_at_exit_label;

void write_registered_record() {
  std::string label;
  {
    std::lock_guard<std::mutex> lock(g_at_exit_mutex);
    label = g_at_exit_label;
  }
  if (!label.empty()) write_bench_record_file(label);
}

}  // namespace

void install_bench_record_at_exit(const std::string& label) {
  // atexit hooks and static destructors unwind LIFO off one stack, so
  // the obs registry (a function-local static) must be constructed —
  // and its destructor registered — before our hook goes on, or a
  // caller that installs before first touching obs reads destroyed
  // maps at exit. Touching a snapshot here pins the order.
  (void)annotations();
  std::lock_guard<std::mutex> lock(g_at_exit_mutex);
  const bool first = g_at_exit_label.empty();
  g_at_exit_label = label;
  if (first) std::atexit(&write_registered_record);
}

}  // namespace opto::obs
