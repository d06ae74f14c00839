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
//
// Contention screen (DESIGN.md §12): an untraced, fault-free pass is
// first replayed as if no worm ever lost, keying every nominal window
// [s+i, s+i+L) by channel (by link alone under conversion, where a worm
// may retune onto any λ). A worm none of whose windows meets another of
// its key, and whose own channel is never held, can be neither blocked,
// cut nor retuned: it is delivered intact at s+n+L−2 (s for an empty
// path) and never enters the step loop. The contended rest is stepped
// as above; it never sees a settled worm's claims, since those are
// expired at every step a contended worm probes them, so its outcomes
// are unchanged. Every PassMetrics field, engine counters included, is
// byte-identical to a fully stepped pass. A pass of one worm whose λ is
// held on no link of its route is settled the same way before any worm
// state is built (settle_lone).
//
// An empty batch returns before any of this: every metric is 0, the
// trace is empty, and under conversion wavelength_offsets is {0}. It
// still counts as one pass in the obs counters.
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
  bool record_trace = false;  ///< a traced pass is stepped whole (no screen)
  ConversionMode conversion = ConversionMode::None;
  /// Per-node converter flags, indexed by NodeId; consulted only in
  /// Sparse mode (Full converts everywhere). The coupler feeding link e
  /// sits at source(e), so that node's flag governs retunes onto e.
  std::vector<char> converters;
  /// Optional fault-injection plan (sim/faults.hpp); must outlive the
  /// simulator. Null — or a disabled zero-fault plan — leaves every code
  /// path and outcome bit-identical to the fault-free engine.
  const FaultPlan* faults = nullptr;
};

/// A (directed link, wavelength) channel held by an established
/// connection, in the list form that fuzz cases and scenario files store.
/// The simulator itself reads held channels as a mask (held_mask() turns a
/// slot list into one; see Simulator::set_held).
struct PinnedSlot {
  EdgeId link = kInvalidEdge;
  Wavelength wavelength = 0;

  bool operator==(const PinnedSlot&) const = default;
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

  bool operator==(const LaunchSpec&) const = default;
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

  /// The contention screen: marks contended_[id] for every worm one of
  /// whose windows meets another window of its screen key, or whose own
  /// channel is held, and settles the rest in closed form (status, finish
  /// time, retire_, and their share of `metrics`). Returns the worms
  /// settled. `injection_order_` must be built.
  std::uint32_t screen(std::span<const LaunchSpec> specs,
                       PassMetrics& metrics);

  /// The closed form of a worm that meets no other window and no hold of
  /// its own λ on positions [first, end) of the flat link arena: adds its
  /// worm steps, link-busy steps, probes, and held-λ hits at converting
  /// hops to `metrics`, and returns its delivery time. The screen's settle
  /// loop and the lone-worm pass share it.
  SimTime settle(const LaunchSpec& spec, std::uint32_t first,
                 std::uint32_t end, PassMetrics& metrics) const;

  /// The pass of one untraced, fault-free worm: if its λ is held on no
  /// link of its route, fills `result` (freshly reset) as the screened
  /// pass would and returns true; otherwise touches nothing and returns
  /// false, and the pass runs as usual.
  bool settle_lone(const LaunchSpec& spec, PassResult& result);

  /// `steps` and `peak_inflight` of a pass the screen thinned, from every
  /// worm's [start, retire_] interval: the step loop iterates at t exactly
  /// when some worm is present at t.
  void account_iterations(PassMetrics& metrics);

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

  // Packed-attempt key layout, fixed at construction (bandwidth-adaptive):
  //   key32 = (link << (wl_bits + 1)) | merge_bit? | wavelength
  //   word  = (u64(key32) << id_bits) | worm id
  // with wl_bits = bit_width(bandwidth − 1) and merge_bit_ = 1 << wl_bits,
  // which marks a converting coupler's link (its entrants group by link
  // alone, so the wavelength field stays 0). flat_keys_[j] pre-bakes the
  // link and merge halves for flat position j, so the per-step key build
  // is one lookup + a masked OR of the worm's wavelength. Narrow-B
  // topologies sort fewer radix bytes.
  std::vector<std::uint32_t> flat_keys_;
  std::uint32_t merge_bit_ = 0x10000u;

  // Pass-state scratch, hoisted so repeated run() calls reuse capacity
  // (zero steady-state allocation across protocol rounds). All of it is
  // reinitialized at the top of each pass.
  std::vector<Worm> worms_;
  std::vector<WormId> injection_order_;
  std::vector<std::uint64_t> injection_keys_;  ///< packed (start_time, id)
  std::vector<WormId> running_;   ///< head still has links to enter
  std::vector<WormId> draining_;  ///< head done, tail still arriving
  /// Packed (group key, worm) attempt words; after the step loop of a
  /// screened pass, the sorted retire times.
  std::vector<std::uint64_t> attempt_keys_;
  std::vector<std::uint64_t> attempt_keys_scratch_;  ///< radix ping-pong
  std::vector<std::uint32_t> radix_counts_;          ///< radix digit counts
  std::vector<std::uint8_t> contended_;  ///< screen verdict per worm
  /// Per screen key (channel, or link under conversion): reach << 32 |
  /// latest owner, reaches offset by screen_base_; see screen().
  std::vector<std::uint64_t> screen_table_;
  std::uint32_t screen_base_ = 0;
  /// A running head of the screen's replay: its next flat-link position
  /// and the end of its path there, with the launch fields it reads.
  struct ScreenHead {
    std::uint32_t next;
    std::uint32_t end;
    WormId worm;
    std::uint32_t length;
    Wavelength wavelength;
  };
  std::vector<ScreenHead> screen_heads_;
  std::vector<SimTime> retire_;  ///< last step loop iteration a worm is in
  std::vector<WormId> loop_order_;  ///< contended worms in injection order
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
  std::vector<Wavelength> wl_;
  std::vector<WormStatus> status_;
};

}  // namespace opto
