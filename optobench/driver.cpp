// optobench — the optoroute benchmark driver (README.md in this directory).
//
// Runs one workload as a closed loop: this thread issues top-level calls
// back to back and starts no threads of its own; any fan-out runs on the
// library's pool (OPTO_THREADS). Set-up — pool start, the workload's
// fixed graphs and one untimed warm-up call — is repeated kSetupRepeats
// times and reported as a median. Timed calls then run until --seconds
// have passed, at least kMinCalls calls are done and the workload's input
// cycle is complete. Every call's outputs are checked: the workload's
// invariants always, and the recorded digests for seeds that have them.
//
// --trace 0 (obs off, no spans) prints the end-to-end metrics. --trace 1
// alternates blocks of untraced and traced calls; traced calls run with
// obs on and driver spans around every call into a layer, and give the
// per-layer metrics; the untraced blocks give the tracing overhead. The
// last line of stdout is the JSON result.
#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "opto/obs/obs.hpp"
#include "opto/par/thread_pool.hpp"
#include "opto/rwa/strategy.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace optobench;

constexpr std::uint64_t kMinCalls = 100;  // p90 keeps ten samples beyond it
constexpr int kSetupRepeats = 5;
constexpr std::uint64_t kTraceBlock = 10;   // calls per traced/untraced block
constexpr double kDeadlineSeconds = 140.0;  // hard stop, inside 180 s
constexpr std::size_t kDigestCalls = 100;   // calls whose digests are printed
constexpr std::uint64_t kWarmupIndex = std::uint64_t{1} << 62;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::uint64_t calls = 0;  ///< nonzero: exactly this many timed calls
  std::string digests;      ///< recorded per-call digests
  std::string trace_out;    ///< where the traced run writes its spans
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "optobench: %s\n"
               "usage: optobench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--calls <n>] [--digests <file>] "
               "[--trace-out <file>]\n",
               why.c_str());
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const char* text) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-')
    usage(flag + " wants a non-negative integer, got '" + text + "'");
  return value;
}

Options parse(int argc, char** argv) {
  Options options;
  bool have_seed = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(flag + " needs a value");
    const char* value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = parse_u64(flag, value);
      have_seed = true;
    } else if (flag == "--seconds") {
      char* end = nullptr;
      options.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !std::isfinite(options.seconds) ||
          options.seconds <= 0.0 || options.seconds > 120.0)
        usage("--seconds wants a number in (0, 120]");
    } else if (flag == "--trace") {
      const std::string text = value;
      if (text != "0" && text != "1") usage("--trace wants 0 or 1");
      options.trace = text == "1";
      have_trace = true;
    } else if (flag == "--calls") {
      options.calls = parse_u64(flag, value);
    } else if (flag == "--digests") {
      options.digests = value;
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      usage("unknown option " + flag);
    }
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), options.workload) == names.end())
    usage("--workload must be one of mesh_trials, stream_ring, dc_rwa");
  if (!have_seed || !have_trace || options.seconds <= 0.0)
    usage("--seed, --seconds and --trace are required");
  return options;
}

/// Linear-interpolated quantile (the numpy default).
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Recorded digests of (workload, seed): lines "<workload> <seed> <hex>...",
/// one hex digest per call in call order.
std::vector<std::uint64_t> load_digests(const Options& options) {
  std::vector<std::uint64_t> digests;
  if (options.digests.empty()) return digests;
  std::ifstream in(options.digests);
  if (!in) usage("cannot read " + options.digests);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string name;
    std::uint64_t seed = 0;
    if (!(fields >> name >> seed)) continue;
    if (name != options.workload || seed != options.seed) continue;
    std::string hex;
    while (fields >> hex) digests.push_back(std::stoull(hex, nullptr, 16));
  }
  return digests;
}

/// High-water resident set size (VmHWM). Not getrusage's ru_maxrss: that
/// keeps the high-water mark of the process image before exec, i.e. of
/// whatever launched the driver.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    std::istringstream fields(line.substr(6));
    double kib = 0.0;
    fields >> kib;
    return kib / 1024.0;
  }
  return 0.0;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// Traced-call totals that become the per-layer metrics.
struct LayerTotals {
  std::uint64_t calls = 0, units = 0, wall_ns = 0, cpu_ns = 0;
  std::uint64_t pool_capacity_ns = 0, allocs = 0;
  std::uint64_t build_ns = 0, builds = 0, stats_ns = 0, stats = 0, links = 0;
  std::uint64_t protocol_ns = 0, protocol_pass_ns = 0, protocol_rounds = 0;
  std::uint64_t launches = 0, contention_losses = 0;
  std::uint64_t pass_ns = 0, passes = 0, worm_steps = 0, probes = 0, hits = 0;
  std::uint64_t sharded = 0, shard_ns = 0, retunes = 0;
  std::uint64_t engine_span_ns = 0, engine_phase_ns = 0, engine_pass_ns = 0;
  std::uint64_t engine_rounds = 0, engine_readmits = 0, engine_peak = 0;
  std::uint64_t engine_passes = 0, engine_units = 0;
  std::uint64_t rwa_cpu_ns = 0, rwa_pass_cpu_ns = 0;
  struct Kind {
    std::uint64_t calls = 0, wall_ns = 0, instances = 0;
  };
  std::map<std::string, Kind> kinds;
};

/// Per-call accounting written into the trace file.
struct CallTrace {
  std::uint64_t index = 0;
  const char* name = "";
  std::uint64_t wall_ns = 0, capacity_ns = 0, cpu_ns = 0, allocs = 0;
  std::vector<std::int64_t> self_ns;  ///< parallel to the workload tree
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(),
                std::isfinite(metrics[i].value) ? metrics[i].value : 0.0,
                metrics[i].unit);
  std::printf("}}\n");
}

std::string hex(std::uint64_t value) {
  char text[17];
  std::snprintf(text, sizeof text, "%016llx",
                static_cast<unsigned long long>(value));
  return text;
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t process_start = now_ns();
  const Options options = parse(argc, argv);
  opto::obs::set_enabled(options.trace);

  opto::ThreadPool& pool = opto::ThreadPool::global();
  const std::uint64_t pool_ready = now_ns();
  const std::uint64_t width = pool.thread_count();

  // Set-up, repeated; the last workload instance is the one measured.
  std::unique_ptr<Workload> workload;
  std::vector<double> setup_ns;
  std::string problem;
  bool setup_ok = true;
  try {
    for (int r = 0; r < kSetupRepeats; ++r) {
      const std::uint64_t start = now_ns();
      workload = make_workload(options.workload, options.seed);
      const CallOutcome warm =
          workload->call(kWarmupIndex + static_cast<std::uint64_t>(r), nullptr);
      setup_ns.push_back(static_cast<double>(now_ns() - start));
      if (warm.failed != 0 || !warm.problem.empty()) {
        setup_ok = false;
        if (problem.empty()) problem = "warm-up: " + warm.problem;
      }
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "optobench: set-up failed: %s\n", error.what());
    return 1;
  }
  const double setup_s =
      (static_cast<double>(pool_ready - process_start) +
       quantile(setup_ns, 0.5)) * 1e-9;

  const std::vector<std::uint64_t> expected = load_digests(options);
  const std::vector<LayerNode> tree = workload->tree();
  SpanLog spans;
  LayerTotals layers;
  std::vector<CallTrace> call_traces;
  std::uint64_t accounting_violations = 0;
  std::vector<double> call_ms;
  call_ms.reserve(std::size_t{1} << 16);
  std::vector<std::uint64_t> digests;
  std::uint64_t digest_fold = 0xcbf29ce484222325ull;
  std::uint64_t input_fold = 0xcbf29ce484222325ull;
  const auto fold = [](std::uint64_t& acc, std::uint64_t value) {
    acc = (acc ^ value) * 0x100000001b3ull;
  };
  std::uint64_t attempted = 0, failed = 0, checked = 0, mismatches = 0;
  std::uint64_t plain_units = 0, plain_ns = 0, traced_units = 0, traced_ns = 0;

  const std::uint64_t window_start = now_ns();
  const std::uint64_t cpu_start = process_cpu_ns();
  std::uint64_t index = 0;
  while (true) {
    const bool traced = options.trace && (index / kTraceBlock) % 2 == 1;
    if (options.trace) opto::obs::set_enabled(traced);
    const std::uint64_t units = workload->units(index);
    CallOutcome out;
    std::uint64_t wall = 0;
    try {
      if (!traced) {
        const std::uint64_t start = now_ns();
        out = workload->call(index, nullptr);
        wall = now_ns() - start;
      } else {
        const ObsSnapshot before = ObsSnapshot::take();
        const std::uint64_t allocs0 = opto::obs::alloc_count();
        const std::uint64_t cpu0 = process_cpu_ns();
        const std::uint64_t start = now_ns();
        spans.open_call(workload->call_name(index), index, start);
        out = workload->call(index, &spans);
        const std::uint64_t end = now_ns();
        const std::uint64_t cpu1 = process_cpu_ns();
        const std::uint64_t allocs1 = opto::obs::alloc_count();
        spans.close_call(end);
        const ObsSnapshot after = ObsSnapshot::take();
        wall = end - start;

        // Time accounting: inclusive thread-time per tree node, self =
        // inclusive − children; self times must be non-negative and sum
        // to the call's capacity.
        const std::uint64_t threads = workload->fans_out() ? width : 1;
        CallTrace trace{index, workload->call_name(index), wall,
                        wall * threads, cpu1 - cpu0, allocs1 - allocs0, {}};
        std::vector<std::int64_t> inclusive(tree.size(), 0);
        for (std::size_t n = 0; n < tree.size(); ++n) {
          const LayerNode& node = tree[n];
          std::uint64_t value = trace.capacity_ns;
          if (node.source == LayerNode::Source::Span)
            value = spans.child_ns(node.name);
          else if (node.source == LayerNode::Source::Phase)
            value = phase_wall_delta(before, after, node.name);
          inclusive[n] = static_cast<std::int64_t>(value);
        }
        trace.self_ns = inclusive;
        for (std::size_t n = 0; n < tree.size(); ++n)
          if (tree[n].parent >= 0)
            trace.self_ns[static_cast<std::size_t>(tree[n].parent)] -=
                inclusive[n];
        std::int64_t self_sum = 0;
        bool ok = spans.children_contained();
        const auto tolerance =
            static_cast<std::int64_t>(trace.capacity_ns / 500);
        for (const std::int64_t self : trace.self_ns) {
          self_sum += self;
          ok = ok && self >= -tolerance;
        }
        ok = ok && self_sum == static_cast<std::int64_t>(trace.capacity_ns);
        if (!ok) ++accounting_violations;

        layers.calls += 1;
        layers.units += units;
        layers.wall_ns += wall;
        layers.cpu_ns += trace.cpu_ns;
        layers.pool_capacity_ns += wall * width;
        layers.allocs += trace.allocs;
        layers.build_ns += spans.child_ns("paths.build");
        layers.builds += spans.child_count("paths.build");
        layers.stats_ns += spans.child_ns("paths.stats");
        layers.stats += spans.child_count("paths.stats");
        layers.links += out.links;
        const std::uint64_t pass_ns = phase_wall_delta(before, after, "sim.pass");
        const std::uint64_t protocol_ns =
            phase_wall_delta(before, after, "protocol.run");
        layers.protocol_ns += protocol_ns;
        if (protocol_ns > 0) layers.protocol_pass_ns += pass_ns;
        layers.protocol_rounds += counter_delta(before, after, "protocol.rounds");
        layers.launches += counter_delta(before, after, "sim.launched");
        layers.contention_losses +=
            counter_delta(before, after, "protocol.contention_losses");
        const std::uint64_t passes = counter_delta(before, after, "sim.passes");
        layers.pass_ns += pass_ns;
        layers.passes += passes;
        layers.worm_steps += counter_delta(before, after, "sim.worm_steps");
        layers.probes += counter_delta(before, after, "sim.registry_probes");
        layers.hits += counter_delta(before, after, "sim.registry_hits");
        layers.sharded += counter_delta(before, after, "sim.sharded_passes");
        layers.shard_ns += phase_wall_delta(before, after, "sim.shard_pass");
        layers.retunes += counter_delta(before, after, "sim.retunes");
        const std::uint64_t engine_ns =
            phase_wall_delta(before, after, "engine.run");
        if (engine_ns > 0) {
          layers.engine_span_ns += spans.child_ns("engine.run");
          layers.engine_phase_ns += engine_ns;
          layers.engine_pass_ns += pass_ns;
          layers.engine_rounds += out.engine_rounds;
          layers.engine_readmits += out.engine_readmits;
          layers.engine_peak =
              std::max(layers.engine_peak, out.engine_peak_active);
          layers.engine_passes += passes;
          layers.engine_units += units;
        }
        const std::string name = workload->call_name(index);
        if (name.rfind("rwa.", 0) == 0) {
          LayerTotals::Kind& kind = layers.kinds[name];
          kind.calls += 1;
          kind.wall_ns += wall;
          kind.instances += units;
          layers.rwa_cpu_ns += trace.cpu_ns;
          layers.rwa_pass_cpu_ns += phase_cpu_delta(before, after, "sim.pass");
        }
        call_traces.push_back(std::move(trace));
      }
    } catch (const std::exception& error) {
      out.failed = units;
      out.problem = std::string("call threw: ") + error.what();
    }

    std::uint64_t bad = std::min(out.failed, units);
    if (index < expected.size()) {
      ++checked;
      if (expected[index] != out.digest) {
        ++mismatches;
        bad = units;
        if (out.problem.empty()) out.problem = "digest mismatch";
      }
    }
    if (!out.problem.empty() && problem.empty())
      problem = "call " + std::to_string(index) + ": " + out.problem;
    attempted += units;
    failed += bad;
    call_ms.push_back(static_cast<double>(wall) * 1e-6);
    if (digests.size() < kDigestCalls) digests.push_back(out.digest);
    fold(digest_fold, out.digest);
    fold(input_fold, out.inputs);
    (traced ? traced_units : plain_units) += units;
    (traced ? traced_ns : plain_ns) += wall;

    ++index;
    const double elapsed = static_cast<double>(now_ns() - window_start) * 1e-9;
    if (elapsed > kDeadlineSeconds) break;
    if (options.calls != 0) {
      if (index >= options.calls) break;
    } else if (elapsed >= options.seconds && index >= kMinCalls &&
               index % workload->cycle() == 0 &&
               (!options.trace || index % (2 * kTraceBlock) == 0)) {
      break;
    }
  }
  const std::uint64_t window_ns = now_ns() - window_start;
  const std::uint64_t cpu_ns = process_cpu_ns() - cpu_start;
  if (options.trace) opto::obs::set_enabled(true);

  std::string digest_list;
  for (const std::uint64_t digest : digests) {
    digest_list += ' ';
    digest_list += hex(digest);
  }
  std::printf("optobench: workload=%s seed=%llu threads=%llu calls=%llu "
              "units=%llu digest=%s inputs=%s checked=%llu mismatches=%llu\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              static_cast<unsigned long long>(width),
              static_cast<unsigned long long>(index),
              static_cast<unsigned long long>(attempted),
              hex(digest_fold).c_str(), hex(input_fold).c_str(),
              static_cast<unsigned long long>(checked),
              static_cast<unsigned long long>(mismatches));
  std::printf("optobench-digests:%s\n", digest_list.c_str());
  if (!problem.empty()) std::printf("optobench: FAILED %s\n", problem.c_str());

  std::vector<Metric> metrics;
  if (!options.trace) {
    metrics = {
        {"setup_s", setup_s, "s"},
        {"throughput_per_s",
         ratio(static_cast<double>(attempted),
               static_cast<double>(window_ns) * 1e-9),
         "units/s"},
        {"call_ms_p50", quantile(call_ms, 0.5), "ms"},
        {"call_ms_p90", quantile(call_ms, 0.9), "ms"},
        {"cpu_ms_per_unit",
         ratio(static_cast<double>(cpu_ns) * 1e-6,
               static_cast<double>(attempted)),
         "ms"},
        {"peak_rss_mib", peak_rss_mib(), "MiB"},
    };
  } else {
    const LayerTotals& t = layers;
    const auto per_call = [&](std::uint64_t value) {
      return ratio(static_cast<double>(value), static_cast<double>(t.calls));
    };
    const auto d = [](std::uint64_t value) { return static_cast<double>(value); };
    metrics = {
        {"paths.build_us_per_trial", ratio(d(t.build_ns) * 1e-3, d(t.builds)),
         "us"},
        {"paths.stats_us_per_trial", ratio(d(t.stats_ns) * 1e-3, d(t.stats)),
         "us"},
        {"paths.links_per_trial", ratio(d(t.links), d(t.builds)), "count"},
        {"harness.idle_share", 1.0 - ratio(d(t.cpu_ns), d(t.pool_capacity_ns)),
         "share"},
        {"harness.calls", d(t.calls), "count"},
        {"protocol.run_ms", per_call(t.protocol_ns) * 1e-6, "ms"},
        {"protocol.rounds", per_call(t.protocol_rounds), "count"},
        {"protocol.launches", per_call(t.launches), "count"},
        {"protocol.contention_losses", per_call(t.contention_losses), "count"},
        {"protocol.self_us_per_round",
         ratio((d(t.protocol_ns) - d(t.protocol_pass_ns)) * 1e-3,
               d(t.protocol_rounds)),
         "us"},
        {"sim.pass_ms", per_call(t.pass_ns) * 1e-6, "ms"},
        {"sim.passes", per_call(t.passes), "count"},
        {"sim.pass_us_per_call", ratio(d(t.pass_ns) * 1e-3, d(t.passes)), "us"},
        {"sim.worm_steps", per_call(t.worm_steps), "count"},
        {"sim.worm_steps_per_pass_s",
         ratio(d(t.worm_steps), d(t.pass_ns) * 1e-9), "1/s"},
        {"sim.registry_probes_per_worm_step",
         ratio(d(t.probes), d(t.worm_steps)), "ratio"},
        {"sim.registry_hit_rate", ratio(d(t.hits), d(t.probes)), "share"},
        {"sim.sharded_passes", per_call(t.sharded), "count"},
        {"sim.shard_pass_ms", per_call(t.shard_ns) * 1e-6, "ms"},
        {"sim.retunes", per_call(t.retunes), "count"},
        {"engine.run_ms", per_call(t.engine_span_ns) * 1e-6, "ms"},
        {"engine.rounds", per_call(t.engine_rounds), "count"},
        {"engine.passes_per_request",
         ratio(d(t.engine_passes), d(t.engine_units)), "ratio"},
        {"engine.self_us_per_round",
         ratio((d(t.engine_phase_ns) - d(t.engine_pass_ns)) * 1e-3,
               d(t.engine_rounds)),
         "us"},
        {"engine.conflict_readmits", per_call(t.engine_readmits), "count"},
        {"engine.peak_active", d(t.engine_peak), "count"},
    };
    for (const opto::rwa::StrategyKind kind : opto::rwa::all_strategy_kinds()) {
      const std::string name = std::string("rwa.") + opto::rwa::to_string(kind);
      const auto found = t.kinds.find(name);
      const LayerTotals::Kind k =
          found == t.kinds.end() ? LayerTotals::Kind{} : found->second;
      metrics.push_back({name + ".call_ms",
                         ratio(d(k.wall_ns) * 1e-6, d(k.calls)), "ms"});
      metrics.push_back(
          {name + ".instances", ratio(d(k.instances), d(k.calls)), "count"});
    }
    metrics.push_back({"rwa.self_share",
                       t.rwa_cpu_ns == 0
                           ? 0.0
                           : 1.0 - ratio(d(t.rwa_pass_cpu_ns), d(t.rwa_cpu_ns)),
                       "share"});
    metrics.push_back(
        {"allocs_per_unit", ratio(d(t.allocs), d(t.units)), "count"});
    const double plain_rate = ratio(d(plain_units), d(plain_ns));
    const double traced_rate = ratio(d(traced_units), d(traced_ns));
    metrics.push_back({"tracing_overhead_share",
                       plain_rate == 0.0 ? 0.0 : 1.0 - traced_rate / plain_rate,
                       "share"});

    // Self time per layer, summed over the traced calls.
    std::vector<double> self_total(tree.size(), 0.0);
    double capacity_total = 0.0;
    for (const CallTrace& trace : call_traces) {
      capacity_total += d(trace.capacity_ns);
      for (std::size_t n = 0; n < tree.size(); ++n)
        self_total[n] += static_cast<double>(trace.self_ns[n]);
    }
    std::printf("optobench: self time over %llu traced calls "
                "(share of call wall x threads):\n",
                static_cast<unsigned long long>(t.calls));
    for (std::size_t n = 0; n < tree.size(); ++n)
      std::printf("  %-28s %10.3f ms  %6.2f%%\n", tree[n].name,
                  self_total[n] * 1e-6,
                  100.0 * ratio(self_total[n], capacity_total));
    std::printf("optobench: accounting violations: %llu\n",
                static_cast<unsigned long long>(accounting_violations));

    if (!options.trace_out.empty()) {
      std::error_code ec;
      const std::filesystem::path out_path(options.trace_out);
      if (out_path.has_parent_path())
        std::filesystem::create_directories(out_path.parent_path(), ec);
      std::ofstream out(options.trace_out);
      if (!out) {
        std::fprintf(stderr, "optobench: cannot write %s\n",
                     options.trace_out.c_str());
        return 1;
      }
      out << "{\"workload\": \"" << options.workload
          << "\", \"seed\": " << options.seed << ", \"threads\": " << width
          << ",\n\"tree\": [";
      for (std::size_t n = 0; n < tree.size(); ++n)
        out << (n == 0 ? "" : ", ") << "{\"name\": \"" << tree[n].name
            << "\", \"parent\": " << tree[n].parent << "}";
      out << "],\n\"calls\": [";
      for (std::size_t c = 0; c < call_traces.size(); ++c) {
        const CallTrace& trace = call_traces[c];
        out << (c == 0 ? "\n" : ",\n") << "  {\"call\": " << trace.index
            << ", \"name\": \"" << trace.name
            << "\", \"wall_ns\": " << trace.wall_ns
            << ", \"capacity_ns\": " << trace.capacity_ns
            << ", \"cpu_ns\": " << trace.cpu_ns
            << ", \"allocs\": " << trace.allocs << ", \"self_ns\": [";
        for (std::size_t n = 0; n < trace.self_ns.size(); ++n)
          out << (n == 0 ? "" : ", ") << trace.self_ns[n];
        out << "]}";
      }
      out << "\n],\n\"spans\": ";
      spans.write_json(out);
      out << "}\n";
    }
  }

  const bool correct = failed == 0 && setup_ok && accounting_violations == 0 &&
                       problem.empty();
  print_result(correct, attempted, failed, metrics);
  return 0;
}
