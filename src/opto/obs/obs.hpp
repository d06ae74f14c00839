// Perf-observability primitives: named monotonic counters, scoped
// wall/CPU phase timers, free-form annotations, and a global
// allocation-count hook. Everything funnels into one process-wide
// registry that bench_record.hpp serializes as a BenchRecord JSON.
//
// Cost discipline:
//  * Compile time: building with -DOPTO_OBS_ENABLED=0 turns Counter::add
//    and ScopedTimer into empty inlines in that translation unit — zero
//    instructions on the hot path.
//  * Runtime: OPTO_OBS=0 in the environment (or set_enabled(false))
//    makes every record a single cached-flag test. Observation never
//    changes simulation outcomes either way — the differential tests
//    (test_obs.cpp, test_obs_disabled.cpp) pin both properties.
//
// Counters are process-global atomics, so concurrent trials on the
// thread pool aggregate for free; snapshots are totals across threads.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#ifndef OPTO_OBS_ENABLED
#define OPTO_OBS_ENABLED 1
#endif

namespace opto::obs {

namespace detail {

struct CounterSlot {
  std::atomic<std::uint64_t> value{0};
};

struct PhaseSlot {
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> wall_ns{0};
  std::atomic<std::uint64_t> cpu_ns{0};
};

/// Registers (or finds) a slot; slots live for the whole process, so the
/// returned pointer can be cached in static Counter objects.
CounterSlot* counter_slot(std::string_view name);
PhaseSlot* phase_slot(std::string_view name);

std::uint64_t wall_now_ns();
std::uint64_t thread_cpu_now_ns();

}  // namespace detail

/// True when observation is compiled in and not disabled by OPTO_OBS=0
/// (or set_enabled(false)). Cached after the first call.
bool enabled();

/// Test/driver override of the runtime switch (has no effect on code
/// compiled with OPTO_OBS_ENABLED=0, which never records).
void set_enabled(bool on);

// Counter and ScopedTimer are defined in the header with a different body
// per OPTO_OBS_ENABLED. A translation unit built with the other setting
// (test_obs_disabled) would otherwise give one class two definitions in
// one program; the inline namespace gives each setting its own mangled
// names, so both can link side by side.
#if OPTO_OBS_ENABLED
inline namespace compiled_in {
#else
inline namespace compiled_out {
#endif

/// A named monotonic counter. Construction registers the name once (takes
/// a lock); add() is a relaxed atomic increment behind the enabled()
/// flag, so it is safe and cheap to call from pool threads.
class Counter {
 public:
#if OPTO_OBS_ENABLED
  explicit Counter(std::string_view name)
      : slot_(detail::counter_slot(name)) {}

  void add(std::uint64_t n) {
    if (enabled()) slot_->value.fetch_add(n, std::memory_order_relaxed);
  }

 private:
  detail::CounterSlot* slot_;
#else
  explicit Counter(std::string_view) {}
  void add(std::uint64_t) {}
#endif
};

/// Accumulates wall and thread-CPU time into a named phase for the
/// lifetime of the scope. Scopes nest freely: each named phase counts its
/// own full duration (an inner phase's time is also part of the outer
/// one, as in any inclusive profiler).
class ScopedTimer {
 public:
#if OPTO_OBS_ENABLED
  explicit ScopedTimer(std::string_view phase) {
    if (!enabled()) return;
    slot_ = detail::phase_slot(phase);
    wall_start_ = detail::wall_now_ns();
    cpu_start_ = detail::thread_cpu_now_ns();
  }

  ~ScopedTimer() {
    if (slot_ == nullptr) return;
    slot_->calls.fetch_add(1, std::memory_order_relaxed);
    slot_->wall_ns.fetch_add(detail::wall_now_ns() - wall_start_,
                             std::memory_order_relaxed);
    slot_->cpu_ns.fetch_add(detail::thread_cpu_now_ns() - cpu_start_,
                            std::memory_order_relaxed);
  }
#else
  explicit ScopedTimer(std::string_view) {}
#endif

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

#if OPTO_OBS_ENABLED
 private:
  detail::PhaseSlot* slot_ = nullptr;
  std::uint64_t wall_start_ = 0;
  std::uint64_t cpu_start_ = 0;
#endif
};

}  // inline namespace compiled_in / compiled_out

/// Free-form string note attached to the process snapshot (last write per
/// key wins). Used for run parameters that are not counts: base seed,
/// bench label, schedule name…
void annotate(std::string_view key, std::string_view value);

/// Named numeric gauge (last write per name wins). Unlike a Counter this
/// carries a computed value — a blocking probability, a latency quantile,
/// a sustained rate — and lands in the BenchRecord "metrics" object next
/// to the derived metrics, where the CI regression gate and
/// `bench_compare` read it. Name discipline follows compare.cpp's
/// normalization rules: deterministic model gauges get plain names;
/// wall-clock-dependent gauges must end in `_per_s` or contain `wall_ns`
/// so `--normalize` strips them.
void set_metric(std::string_view name, double value);

struct MetricSnapshot {
  std::string name;
  double value = 0.0;
};

/// Gauges set since the last reset(), sorted by name.
std::vector<MetricSnapshot> metrics();

struct CounterSnapshot {
  std::string name;
  std::uint64_t value = 0;
};

struct PhaseSnapshot {
  std::string name;
  std::uint64_t calls = 0;
  std::uint64_t wall_ns = 0;
  std::uint64_t cpu_ns = 0;
};

/// Snapshots are sorted by name; counters/phases whose value is still
/// zero are included (a registered name is part of the schema).
std::vector<CounterSnapshot> counters();
std::vector<PhaseSnapshot> phases();
std::map<std::string, std::string> annotations();

/// Total calls to the replaced global operator new while observation was
/// enabled. 0 when compiled out.
std::uint64_t alloc_count();

/// Zeroes every counter, phase, annotation, and the allocation count.
/// Registered names survive. Test support only — records written after a
/// reset describe just the window since it.
void reset();

/// Wall-clock seconds since the process registered its first observation
/// (static init of the obs library).
double process_wall_seconds();

}  // namespace opto::obs
