// Time-stepped wormhole simulation engine — one forward pass.
//
// Model recap (§1.1 of the paper, DESIGN.md "Simulation-model decisions"):
//  * a worm injected at time s enters its path link i at time s+i — worms
//    never stall, they advance or get eliminated;
//  * link i is occupied on the worm's wavelength during
//    [s+i, s+i+ℓ−1] where ℓ is the worm's flit length at that link;
//  * serve-first: an entrant finding its (link, wavelength) occupied is
//    eliminated; its upstream flits drain (their occupancy stands);
//  * priority: the higher rank wins; a losing occupant is truncated at the
//    coupler — the remnant ahead of the cut keeps travelling (and can
//    collide again), flits behind the cut drain;
//  * delivery is *intact* only if the worm was never killed or truncated;
//    a truncated remnant that arrives is a failed delivery (retry).
//
// The engine is deterministic: same collection + launch specs produce the
// same outcome. Contention groups within a step are resolved in ascending
// (link, wavelength) order; within-step truncations cannot free a link for
// the same step (the remnant's tail is still on it), so this order does
// not affect occupancy decisions.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "opto/optical/coupler.hpp"
#include "opto/optical/worm.hpp"
#include "opto/paths/path_collection.hpp"
#include "opto/sim/faults.hpp"
#include "opto/sim/metrics.hpp"
#include "opto/sim/occupancy.hpp"
#include "opto/sim/trace.hpp"

namespace opto {

/// Per-simulator override of the SIMD lane policy (par/simd.hpp). Auto
/// follows the process-wide level (compile-time OPTO_SIMD_LEVEL capped by
/// the OPTO_SIMD env var); Off pins this simulator to the scalar kernels
/// regardless. Lane width never changes any output — worm outcomes, model
/// metrics, instrumentation counters, and the raw trace are byte-identical
/// across modes (the simd-diff CI job and differ stage 3 enforce this) —
/// so Off exists for differential testing, not for correctness.
enum class SimdMode : std::uint8_t { Auto, Off };

/// Wavelength-conversion capability (§4 / the [11] comparator). The paper
/// studies the conversion-free case; Full models converters at every
/// router (Cypher et al.'s setting), Sparse models converters at selected
/// routers only ([23]'s wavelength-convertible networks).
enum class ConversionMode : std::uint8_t { None, Full, Sparse };

const char* to_string(ConversionMode mode);

struct SimConfig {
  ContentionRule rule = ContentionRule::ServeFirst;
  TiePolicy tie = TiePolicy::KillAll;
  std::uint16_t bandwidth = 1;  ///< wavelengths per fiber (B)
  bool record_trace = false;
  ConversionMode conversion = ConversionMode::None;
  /// Per-node converter flags, indexed by NodeId; consulted only in
  /// Sparse mode (Full converts everywhere). The coupler feeding link e
  /// sits at source(e), so that node's flag governs retunes onto e.
  std::vector<char> converters;
  /// Optional fault-injection plan (sim/faults.hpp); must outlive the
  /// simulator. Null — or a disabled zero-fault plan — leaves every code
  /// path and outcome bit-identical to the fault-free engine.
  const FaultPlan* faults = nullptr;
  /// Lane policy for the packed attempt kernels; see SimdMode.
  SimdMode simd = SimdMode::Auto;
};

/// A (directed link, wavelength) channel held by an established
/// connection, in the list form that fuzz cases and scenario files store.
/// The simulator itself reads held channels as a mask (held_mask() turns a
/// slot list into one; see Simulator::set_held).
struct PinnedSlot {
  EdgeId link = kInvalidEdge;
  Wavelength wavelength = 0;
};

/// The held-channel mask for `slots` over `link_count` links of
/// `bandwidth` wavelengths: byte link·B + λ is 1 iff some slot names that
/// channel (duplicates are harmless). Every slot must be in range.
std::vector<std::uint8_t> held_mask(EdgeId link_count, std::uint16_t bandwidth,
                                    std::span<const PinnedSlot> slots);

/// Launch parameters for one worm (chosen by the protocol layer).
struct LaunchSpec {
  PathId path = kInvalidPath;
  SimTime start_time = 0;        ///< injection step (delay already applied)
  Wavelength wavelength = 0;     ///< in [0, bandwidth)
  std::uint32_t priority = 0;    ///< rank for the priority rule
  std::uint32_t length = 1;      ///< worm length L in flits (≥ 1)
};

struct WormOutcome {
  WormStatus status = WormStatus::Waiting;
  bool truncated = false;
  bool corrupted = false;             ///< payload voided by a fault
  /// The worm failed because of an injected fault: fault-killed en route,
  /// or delivered with a corrupted payload. Contention losses keep this
  /// false — the protocol's RetryPolicy backs off only on fault losses.
  bool fault_loss = false;
  /// Eliminated by a pinned slot (a wavelength held by an established
  /// connection). Witness-free like a fault kill, but nothing is broken —
  /// the channel is merely busy, so retrying is the right response.
  bool pinned_loss = false;
  SimTime finish_time = -1;           ///< delivery completion / kill step
  std::uint32_t blocked_at_link = 0;  ///< path position of a fatal block
  WormId blocked_by = kInvalidWorm;   ///< the witnessing blocker, if killed
                                      ///< by contention (fault kills have
                                      ///< no witness)

  bool delivered_intact() const {
    return status == WormStatus::Delivered && !truncated && !corrupted;
  }
};

struct PassResult {
  std::vector<WormOutcome> worms;  ///< parallel to the launch specs
  PassMetrics metrics;
  Trace trace;  ///< populated iff config.record_trace
  /// Per-worm wavelength-per-entered-link histories, flattened; populated
  /// only when conversion is enabled (without conversion the launch
  /// wavelength holds on every link). Worm `id` used wavelengths
  /// [wavelengths.begin() + wavelength_offsets[id],
  ///  wavelengths.begin() + wavelength_offsets[id + 1]), one per link its
  /// head entered. The streaming engine pins delivered worms' channels
  /// from these.
  std::vector<std::uint32_t> wavelength_offsets;
  std::vector<Wavelength> wavelengths;
};

class Simulator {
 public:
  /// The collection must outlive the simulator and must not gain paths
  /// while any simulator built on it is in use (the simulator reads the
  /// collection's link arena in place). The graph's
  /// link_count × config.bandwidth must not exceed kMaxChannels
  /// (occupancy.hpp); the constructor asserts it.
  Simulator(const PathCollection& collection, SimConfig config);

  /// Simulates one forward pass of all `specs` worms to quiescence.
  PassResult run(std::span<const LaunchSpec> specs);

  /// Allocation-free variant: reuses `result`'s buffers, so a driver that
  /// keeps one PassResult across rounds (TrialAndFailure, benches) does
  /// zero steady-state allocation. `result` is fully overwritten.
  void run(std::span<const LaunchSpec> specs, PassResult& result);

  const SimConfig& config() const { return config_; }

  /// Borrows the held-channel mask consulted by subsequent run() calls
  /// (the streaming engine's established circuits). Byte link·B + λ is
  /// nonzero iff that channel is held; the mask must cover exactly
  /// link_count × B bytes, or be empty for "nothing held". The simulator
  /// never copies it: every pass reads the caller's bytes in place, so the
  /// caller may flip channels between passes without re-installing, and
  /// the span must stay valid while passes run.
  ///
  /// A held channel is a permanent top-priority occupant (kPinnedWorm)
  /// that never enters the occupancy registry: every entrant is
  /// eliminated, priority worms cannot truncate it, and converting routers
  /// retune around it. Losses are accounted in PassMetrics::pinned_blocks
  /// / WormOutcome::pinned_loss, apart from contention and fault kills,
  /// and a held channel shadows a stuck-wavelength fault on the same
  /// channel. Each mask hit counts as one registry probe and hit, so the
  /// stats read as if the hold were a registry claim.
  void set_held(std::span<const std::uint8_t> held);

 private:
  void apply_truncation(WormId victim, std::uint32_t cut_link_index,
                        SimTime now, PassResult& result);

  bool converts_at(NodeId node) const;

  bool held(EdgeId link, Wavelength wavelength) const {
    return !held_.empty() &&
           held_[static_cast<std::size_t>(link) * config_.bandwidth +
                 wavelength] != 0;
  }

  const PathCollection& collection_;
  SimConfig config_;
  OccupancyRegistry registry_;
  std::span<const std::uint8_t> held_;  ///< borrowed; see set_held()

  // Immutable per-collection views (SoA hot path): the collection's link
  // arena, every path's links concatenated in id order, and the per-link
  // "source node converts" bitmap.
  std::span<const EdgeId> flat_links_;
  std::vector<char> link_converts_;  ///< sized iff conversion is enabled

  // Packed-attempt key layout (attempt_kernel.hpp), fixed at construction.
  // flat_keys_[j] pre-bakes (link << (wl_bits+1)) | merge_bit for flat
  // position j, so the per-step key build is one lookup + a masked OR of
  // the worm's wavelength. merge_bit_ = 1 << wl_bits, with
  // wl_bits = bit_width(bandwidth − 1) — the layout adapts to B, keeping
  // radix passes minimal. simd_on_ folds SimConfig::simd into the
  // process-wide lane level once.
  std::vector<std::uint32_t> flat_keys_;
  std::uint32_t merge_bit_ = 0x10000u;
  bool simd_on_ = false;

  // Pass-state scratch, hoisted so repeated run() calls reuse capacity
  // (zero steady-state allocation across protocol rounds). All of it is
  // reinitialized at the top of each pass.
  std::vector<Worm> worms_;
  std::vector<WormId> injection_order_;
  std::vector<std::uint64_t> injection_keys_;  ///< packed (start_time, id)
  std::vector<WormId> running_;   ///< head still has links to enter
  std::vector<WormId> draining_;  ///< head done, tail still arriving
  std::vector<std::uint64_t> attempt_keys_;   ///< packed (group key, worm)
  std::vector<std::uint64_t> attempt_keys_scratch_;  ///< radix ping-pong
  std::vector<std::uint8_t> admit_mask_;  ///< free-singleton prescan flags
  std::vector<WormId> group_worms_;           ///< one contention group's ids
  std::vector<Contender> contenders_;
  /// Per-worm wavelength history; populated only when conversion is on.
  std::vector<std::vector<Wavelength>> wavelength_history_;
  // Converting-coupler scratch, sized to config_.bandwidth per group.
  std::vector<std::optional<Claim>> conv_occupant_;
  std::vector<WormId> conv_admitted_;
  std::vector<WormId> conv_order_;

  // SoA per-worm hot-loop state, parallel to worms_: the head's index
  // into flat_links_ (and its one-past-the-end bound), the current
  // wavelength, and the status byte — attempt collection touches only
  // these flat arrays.
  std::vector<std::uint32_t> cursor_;
  std::vector<std::uint32_t> cursor_end_;
  std::vector<std::uint32_t> wl_;  ///< widened for 32-bit SIMD gathers
  std::vector<WormStatus> status_;
};

}  // namespace opto
