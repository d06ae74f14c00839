// Greedy case minimization: starting from a case that exhibits some
// property (a differential mismatch, usually), repeatedly apply
// shrinking passes — drop worms, drop and truncate paths, shorten worm
// lengths, flatten start times, reduce bandwidth, strip conversion and
// faults, compact the graph — keeping each candidate only if the
// property still holds, until a full round makes no progress or the
// check budget runs out.
//
// The predicate is arbitrary, so the same machinery minimizes real
// divergences (predicate: "diff_case() reports issues") and distills
// behavioral regression anchors (examples/repros/; predicate: "a worm is
// truncated and a retune happens").
#pragma once

#include <cstdint>
#include <functional>

#include "opto/testlib/fuzz_case.hpp"

namespace opto::testlib {

using CasePredicate = std::function<bool(const FuzzCase&)>;

struct ShrinkOptions {
  /// Budget of predicate evaluations; each is roughly two simulator
  /// passes plus a reference pass, so the default keeps a shrink in the
  /// hundreds of milliseconds for generator-sized cases.
  std::uint32_t max_checks = 4000;
  std::uint32_t max_rounds = 24;
};

struct ShrinkStats {
  std::uint32_t checks = 0;        ///< predicate evaluations spent
  std::uint32_t improvements = 0;  ///< candidates accepted
  std::uint32_t rounds = 0;        ///< full pass sweeps
};

/// Minimizes `failing` under `still_interesting`. Requires
/// still_interesting(failing) (asserted); the result satisfies the
/// predicate and is structurally well-formed.
FuzzCase shrink_case(FuzzCase failing,
                     const CasePredicate& still_interesting,
                     const ShrinkOptions& options = {},
                     ShrinkStats* stats = nullptr);

}  // namespace opto::testlib
