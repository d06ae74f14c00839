// Traced-run support for the optobench driver: an in-memory log of spans
// around calls into each layer, and deltas of the program's own obs
// phases and counters around each top-level call.
#pragma once

#include <cstdint>
#include <mutex>
#include <ostream>
#include <string_view>
#include <vector>

#include "opto/obs/obs.hpp"

namespace optobench {

/// steady_clock, nanoseconds.
std::uint64_t now_ns();
/// CPU time of the whole process (all threads), nanoseconds.
std::uint64_t process_cpu_ns();

struct Span {
  const char* name = "";      ///< static string
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t id = 0;       ///< 1-based
  std::uint32_t parent = 0;   ///< 0 for a top-level call
  std::uint64_t call = 0;     ///< index of the enclosing top-level call
  std::uint64_t item = 0;     ///< trial seed (children) or call index
  std::uint32_t thread = 0;   ///< small per-process thread number
};

/// Spans kept in memory and written out when the run ends. Children come
/// from pool threads, so recording locks; capacity is reserved up front
/// so recording does not allocate inside a measured call.
class SpanLog {
 public:
  SpanLog();

  /// Opens a top-level call; children recorded until the next open_call()
  /// get it as their parent.
  void open_call(const char* name, std::uint64_t call, std::uint64_t start_ns);
  void close_call(std::uint64_t end_ns);

  /// Records a finished child span of the open call.
  void child(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
             std::uint64_t item);

  /// Total duration of the current call's children named `name`.
  std::uint64_t child_ns(std::string_view name) const;
  std::uint64_t child_count(std::string_view name) const;

  /// True when every child of the current call lies inside its interval.
  bool children_contained() const;

  /// Writes the spans as a JSON array, one span per line.
  void write_json(std::ostream& out) const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::size_t call_pos_ = 0;  ///< index of the current call's span
};

/// Obs phase and counter totals at one instant.
struct ObsSnapshot {
  std::vector<opto::obs::PhaseSnapshot> phases;
  std::vector<opto::obs::CounterSnapshot> counters;

  static ObsSnapshot take();
};

/// after − before, by name; 0 for a name registered in neither.
std::uint64_t phase_wall_delta(const ObsSnapshot& before,
                               const ObsSnapshot& after, std::string_view name);
std::uint64_t phase_cpu_delta(const ObsSnapshot& before,
                              const ObsSnapshot& after, std::string_view name);
std::uint64_t counter_delta(const ObsSnapshot& before, const ObsSnapshot& after,
                            std::string_view name);

}  // namespace optobench
