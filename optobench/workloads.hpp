// The three optobench workloads. Each follows one of the paper's uses of
// the system; README.md says why each was chosen and what it stresses.
//
//   mesh_trials  run_trials over fresh 32x32 mesh random functions (E7)
//   stream_ring  four streaming Engines per call on ring-8 (E17)
//   dc_rwa       run_strategy_trials over the RWA zoo on a fat tree (E19)
//
// A call's inputs are a pure function of (workload seed, call index): the
// workload generates every graph, request list and config itself and
// hands the library only those.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace optobench {

class SpanLog;

/// What one top-level call produced.
struct CallOutcome {
  std::uint64_t failed = 0;  ///< units that broke an invariant
  std::uint64_t digest = 0;  ///< fold of the call's model outputs
  std::uint64_t inputs = 0;  ///< fingerprint of the call's inputs
  std::string problem;       ///< first broken invariant, empty if none
  // Model outputs the traced run turns into layer metrics.
  std::uint64_t links = 0;          ///< mesh_trials: links over all paths
  std::uint64_t engine_rounds = 0;  ///< stream_ring
  std::uint64_t engine_readmits = 0;
  std::uint64_t engine_peak_active = 0;
};

/// One node of a call's time-accounting tree. Inclusive thread-time of
/// the root is the call's capacity (wall × threads the call may use); of
/// a span node, the sum of the driver's child spans of that name; of a
/// phase node, the delta of the program's own obs phase. Self time is
/// inclusive minus the children's inclusive times.
struct LayerNode {
  enum class Source { Call, Span, Phase };
  const char* name;
  Source source;
  int parent;  ///< index into the tree; -1 for the root
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Calls per input cycle; runs end on a cycle boundary so every input
  /// kind gets the same share of calls.
  virtual std::uint64_t cycle() const = 0;
  /// True when one call fans out over the whole pool.
  virtual bool fans_out() const = 0;
  /// Work units (trials, offered requests, routed instances) of a call.
  virtual std::uint64_t units(std::uint64_t index) const = 0;
  /// Name of the top-level span of call `index`.
  virtual const char* call_name(std::uint64_t index) const = 0;
  virtual std::vector<LayerNode> tree() const = 0;

  /// Runs call `index`; `spans` is null in untraced runs.
  virtual CallOutcome call(std::uint64_t index, SpanLog* spans) = 0;
};

const std::vector<std::string>& workload_names();

/// Null for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

}  // namespace optobench
