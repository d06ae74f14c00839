// Differential driver: one fuzz case in, a list of disagreements out.
//
// Every case gets, in order:
//  1. a structural well-formedness check (hostile repro files fail here
//     with a message instead of tripping an engine assert);
//  2. two independent production Simulator runs, compared bit-for-bit —
//     instrumentation counters and the raw trace order included; the
//     engine must be deterministic for replay to mean anything;
//  3. the validate.hpp invariant checkers (conservation, finish-time
//     windows, witnesses, trace-based occupancy disjointness);
//  4. when the case carries no *enabled* fault plan: a field-for-field
//     comparison against the first-principles reference engine, per-link
//     wavelength histories included under conversion
//     (reference_run models no faults, so faulty cases stop at 2–3 —
//     a case whose fault plan has all-zero rates still reaches 4,
//     which pins the "disabled plan is bit-identical to no plan"
//     contract);
//  5. a screen stage: the case run again with record_trace off, so the
//     simulator's contention screen settles its overlap-free worms in
//     closed form (a traced pass never screens). The untraced run must
//     equal the traced run of stage 2 bit for bit — instrumentation
//     counters and wavelength histories included — and, when stage 4
//     runs, the reference engine field for field;
//  6. an RWA stage: the case's path endpoints become requests. For each
//     distinct request, k_shortest_routes(…, 4) must equal the plain Yen
//     of reference_ksp.hpp route for route. Then every rwa/ strategy
//     routes the requests — a manual replay checks each
//     accepted decision (routes connect source to destination, every λ
//     is inside the band, no two accepted routes share a (link, λ)
//     channel in a round), then two independent run_strategy_schedule
//     runs must agree on every result field (the DESIGN.md §11
//     counter-based-RNG determinism contract).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "opto/testlib/fuzz_case.hpp"

namespace opto::testlib {

struct DiffReport {
  /// Human-readable disagreements, each prefixed with its source: [case],
  /// [determinism], [validate], [occupancy], [reference],
  /// [screen], or [rwa].
  std::vector<std::string> issues;
  /// Production-engine metrics of the run (zeroed when the case never
  /// built); lets callers select cases by behavior without re-running.
  PassMetrics metrics;
  /// RWA-stage tallies: requests the stage derived from the case's paths
  /// (0 = stage skipped) and first-round blocked requests summed over
  /// all strategies — the fuzz driver's coverage counters and the
  /// --distill rwa predicate read these.
  std::uint64_t rwa_requests = 0;
  std::uint64_t rwa_blocked = 0;

  bool ok() const { return issues.empty(); }
  std::string summary(std::size_t max_items = 8) const;
};

DiffReport diff_case(const FuzzCase& fuzz);

}  // namespace opto::testlib
