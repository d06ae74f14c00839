// Optional event trace for tests, debugging, and the examples' verbose
// mode. Disabled by default; recording costs one append per event.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "opto/graph/graph.hpp"
#include "opto/optical/worm.hpp"
#include "opto/util/assert.hpp"

namespace opto {

enum class TraceKind : std::uint8_t {
  Inject,    ///< worm launched onto its first link
  Admit,     ///< head admitted onto a link
  Retune,    ///< admitted after a wavelength conversion
  Kill,      ///< worm eliminated at a coupler
  Truncate,  ///< occupant cut by a higher-priority entrant
  Deliver,   ///< tail fully arrived at the destination
  FaultKill, ///< eliminated by a fault (dark link / coupler / stuck λ)
  Corrupt,   ///< payload corrupted while entering a link
};

const char* to_string(TraceKind kind);

struct TraceEvent {
  SimTime time = 0;
  TraceKind kind = TraceKind::Inject;
  WormId worm = kInvalidWorm;
  EdgeId link = kInvalidEdge;     ///< link involved (invalid for Deliver)
  Wavelength wavelength = 0;
  WormId other = kInvalidWorm;    ///< blocker / truncator when applicable

  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

class Trace {
 public:
  explicit Trace(bool enabled = false) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  void record(const TraceEvent& event) {
    if (!enabled_) return;
    // The simulator emits events in simulated-time order; a regression
    // here (e.g. finalizing a truncated drain too late) silently breaks
    // every trace consumer, so the invariant is checked on every append.
    OPTO_ASSERT_MSG(events_.empty() || events_.back().time <= event.time,
                    "trace events must be time-monotonic");
    events_.push_back(event);
  }

  const std::vector<TraceEvent>& events() const { return events_; }
  void clear() { events_.clear(); }

  /// Re-arms the trace for a fresh pass, keeping the event buffer's
  /// capacity (pass-state reuse: no steady-state allocation).
  void reset(bool enabled) {
    enabled_ = enabled;
    events_.clear();
  }

  /// Human-readable one-line rendering of an event.
  static std::string describe(const TraceEvent& event);

 private:
  bool enabled_;
  std::vector<TraceEvent> events_;
};

}  // namespace opto
