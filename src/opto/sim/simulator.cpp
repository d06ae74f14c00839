#include "opto/sim/simulator.hpp"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <limits>
#include <numeric>
#include <optional>

#include "opto/obs/obs.hpp"
#include "opto/par/simd.hpp"
#include "opto/sim/attempt_kernel.hpp"
#include "opto/util/assert.hpp"
#include "opto/util/timer.hpp"

namespace opto {

namespace {

/// The graph's link count, asserted against the supported channel budget
/// (occupancy.hpp) before the registry allocates its table.
EdgeId checked_link_count(const Graph& graph, std::uint16_t bandwidth) {
  OPTO_ASSERT(bandwidth >= 1);
  OPTO_ASSERT_MSG(
      static_cast<std::uint64_t>(graph.link_count()) * bandwidth <=
          kMaxChannels,
      "link_count x bandwidth exceeds the channel budget kMaxChannels");
  return graph.link_count();
}

/// LSD radix sort over the low `passes` bytes of each key (higher bytes
/// must be zero). For the per-step attempt keys — a few hundred to a few
/// thousand nearly-random integers — the branch-free counting passes beat
/// introsort's mispredicted compares by ~2x.
void radix_sort(std::vector<std::uint64_t>& keys,
                std::vector<std::uint64_t>& scratch, unsigned passes) {
  scratch.resize(keys.size());
  for (unsigned pass = 0; pass < passes; ++pass) {
    const unsigned shift = pass * 8;
    std::uint32_t offsets[256] = {};
    for (const std::uint64_t v : keys) ++offsets[(v >> shift) & 0xff];
    std::uint32_t sum = 0;
    for (std::uint32_t& slot : offsets) {
      const std::uint32_t here = slot;
      slot = sum;
      sum += here;
    }
    for (const std::uint64_t v : keys)
      scratch[offsets[(v >> shift) & 0xff]++] = v;
    keys.swap(scratch);
  }
}

bool profile_enabled() {
  static const bool enabled = [] {
    const char* env = std::getenv("OPTO_PROFILE");
    return env != nullptr && env[0] != '\0';
  }();
  return enabled;
}

/// Pass-granular obs counters (one batch of relaxed adds per pass, not
/// per step — the hot loop stays untouched). Static handles: the name
/// registration happens once per process.
struct SimObsCounters {
  obs::Counter passes{"sim.passes"};
  obs::Counter steps{"sim.steps"};
  obs::Counter worm_steps{"sim.worm_steps"};
  obs::Counter launched{"sim.launched"};
  obs::Counter delivered{"sim.delivered"};
  obs::Counter killed{"sim.killed"};
  obs::Counter truncated{"sim.truncated"};
  obs::Counter contentions{"sim.contentions"};
  obs::Counter retunes{"sim.retunes"};
  obs::Counter fault_kills{"sim.fault_kills"};
  obs::Counter corrupted_arrivals{"sim.corrupted_arrivals"};
  obs::Counter registry_probes{"sim.registry_probes"};
  obs::Counter registry_hits{"sim.registry_hits"};
};

void record_pass_observation(const PassMetrics& metrics) {
  static SimObsCounters counters;
  counters.passes.add(1);
  counters.steps.add(metrics.steps);
  counters.worm_steps.add(metrics.worm_steps);
  counters.launched.add(metrics.launched);
  counters.delivered.add(metrics.delivered);
  counters.killed.add(metrics.killed);
  counters.truncated.add(metrics.truncated);
  counters.contentions.add(metrics.contentions);
  counters.retunes.add(metrics.retunes);
  counters.fault_kills.add(metrics.fault_kills);
  counters.corrupted_arrivals.add(metrics.corrupted_arrivals);
  counters.registry_probes.add(metrics.registry_probes);
  counters.registry_hits.add(metrics.registry_hits);
}

}  // namespace

const char* to_string(ConversionMode mode) {
  switch (mode) {
    case ConversionMode::None:
      return "none";
    case ConversionMode::Full:
      return "full";
    case ConversionMode::Sparse:
      return "sparse";
  }
  return "?";
}

Simulator::Simulator(const PathCollection& collection, SimConfig config)
    : collection_(collection),
      config_(std::move(config)),
      registry_(checked_link_count(collection.graph(), config_.bandwidth),
                config_.bandwidth) {
  if (config_.conversion == ConversionMode::Sparse)
    OPTO_ASSERT_MSG(config_.converters.size() >= collection.graph().node_count(),
                    "Sparse conversion needs a per-node converter flag");
  // The collection's link arena stays put until the collection mutates,
  // which the lifetime contract forbids while simulators exist.
  flat_links_ = collection.arena();
  if (config_.conversion != ConversionMode::None) {
    const Graph& graph = collection.graph();
    link_converts_.resize(graph.link_count());
    for (EdgeId link = 0; link < graph.link_count(); ++link)
      link_converts_[link] = converts_at(graph.source(link)) ? 1 : 0;
  }
  // Pre-bake the per-flat-position halves of the packed attempt key
  // (attempt_kernel.hpp): the bandwidth-adaptive layout packs the
  // wavelength into bit_width(B−1) bits, so narrow-B topologies sort
  // fewer radix bytes. The channel budget keeps the whole key within
  // 22 bits, so it always fits its 32-bit half.
  const unsigned wl_bits =
      std::bit_width(static_cast<std::uint32_t>(config_.bandwidth) - 1u);
  merge_bit_ = std::uint32_t{1} << wl_bits;
  flat_keys_.resize(flat_links_.size());
  for (std::size_t j = 0; j < flat_links_.size(); ++j) {
    const EdgeId link = flat_links_[j];
    const bool merges = !link_converts_.empty() && link_converts_[link] != 0;
    flat_keys_[j] = (link << (wl_bits + 1)) | (merges ? merge_bit_ : 0u);
  }
  simd_on_ = config_.simd != SimdMode::Off && simd::enabled();
}

std::vector<std::uint8_t> held_mask(EdgeId link_count, std::uint16_t bandwidth,
                                    std::span<const PinnedSlot> slots) {
  std::vector<std::uint8_t> mask(
      static_cast<std::size_t>(link_count) * bandwidth, 0);
  for (const PinnedSlot& slot : slots) {
    OPTO_ASSERT(slot.link < link_count);
    OPTO_ASSERT(slot.wavelength < bandwidth);
    mask[static_cast<std::size_t>(slot.link) * bandwidth + slot.wavelength] =
        1;
  }
  return mask;
}

void Simulator::set_held(std::span<const std::uint8_t> held) {
  OPTO_ASSERT_MSG(held.empty() ||
                      held.size() ==
                          static_cast<std::size_t>(
                              collection_.graph().link_count()) *
                              config_.bandwidth,
                  "held-channel mask must cover link_count x bandwidth");
  held_ = held;
}

bool Simulator::converts_at(NodeId node) const {
  switch (config_.conversion) {
    case ConversionMode::None:
      return false;
    case ConversionMode::Full:
      return true;
    case ConversionMode::Sparse:
      return config_.converters[node] != 0;
  }
  return false;
}

void Simulator::apply_truncation(WormId victim, std::uint32_t cut_link_index,
                                 SimTime now, PassResult& result) {
  Worm& worm = worms_[victim];
  const PathView path = collection_.path(worm.path);
  const SimTime cut_entry = worm.entry_time(cut_link_index);
  OPTO_ASSERT(now > cut_entry);
  // Flits that made it through the cut coupler before `now` survive on
  // this cut's downstream links; the head stream (what can still be
  // delivered) is the minimum across all cuts so far.
  const auto remnant = static_cast<std::uint32_t>(now - cut_entry);
  worm.length = std::min(worm.length, remnant);
  OPTO_ASSERT(worm.length >= 1);
  worm.truncated = true;
  ++result.metrics.truncated;
  const bool convert = config_.conversion != ConversionMode::None;
  const auto victim_wavelength = [&](std::uint32_t i) {
    return convert ? wavelength_history_[victim][i] : worm.wavelength;
  };
  result.trace.record({now, TraceKind::Truncate, victim,
                       path.link(cut_link_index),
                       victim_wavelength(cut_link_index), kInvalidWorm});
  // Shorten the victim's claims from the cut onward: link i now frees at
  // entry_i + remnant. shorten() takes the min with the existing release,
  // so links past an earlier (deeper) cut keep their shorter windows;
  // claims the victim no longer owns are skipped.
  for (std::uint32_t i = cut_link_index; i < worm.head_index; ++i)
    result.metrics.link_busy_steps -=
        static_cast<std::uint64_t>(registry_.shorten(
            path.link(i), victim_wavelength(i), victim,
            worm.entry_time(i) + remnant));
  // If the victim was still draining and the cut pulled its tail's exit
  // from the last link strictly before `now`, its delivery is already in
  // the past: finalize immediately so the drain scan never records a
  // Deliver event behind later-timestamped ones. finish_time keeps the
  // physical drain time; the trace event carries `now` (when the outcome
  // became known) to stay time-monotonic. A tail leaving exactly at `now`
  // is NOT finalized here: that flit is still crossing couplers this
  // step, so a later contention group of the same step may cut it again —
  // this step's drain scan (which runs after every group) finalizes it.
  // Finalized or killed victims can be cut again (their upstream flits
  // keep draining through earlier links) — those keep their existing
  // outcome.
  if (worm.status == WormStatus::Running &&
      worm.head_index == path.length() && !path.empty()) {
    const SimTime done = worm.entry_time(path.length() - 1) + worm.length - 1;
    if (done < now) {
      worm.status = WormStatus::Delivered;
      status_[victim] = WormStatus::Delivered;
      worm.finish_time = done;
      ++result.metrics.truncated_arrivals;  // a cut worm is never intact
      result.trace.record({now, TraceKind::Deliver, victim, kInvalidEdge,
                           worm.wavelength, kInvalidWorm});
    }
  }
}

PassResult Simulator::run(std::span<const LaunchSpec> specs) {
  PassResult result;
  run(specs, result);
  return result;
}

void Simulator::run(std::span<const LaunchSpec> specs, PassResult& result) {
  const bool profile = profile_enabled();
  const obs::ScopedTimer obs_timer("sim.pass");
  std::optional<Timer> timer;  // wall_ns is published only when profiling
  if (profile) timer.emplace();
  result.trace.reset(config_.record_trace);
  result.metrics = PassMetrics{};
  const auto count = static_cast<WormId>(specs.size());
  result.worms.assign(count, WormOutcome{});
  registry_.clear();
  registry_.reset_stats();
  // Fault injection (sim/faults.hpp). A null or zero-fault plan keeps
  // every branch below dead, so the fault-free engine is untouched.
  const FaultPlan* plan = config_.faults;
  const bool faults_on = plan != nullptr && plan->enabled();
  if (faults_on && plan->has_stuck_wavelengths()) {
    // A stuck wavelength is modelled as a permanent occupant: a sentinel
    // claim (worm = kInvalidWorm, top priority, never released) that the
    // contention resolvers treat as an unbeatable blocker. Serve-first
    // entrants are eliminated; priority entrants cannot truncate it;
    // converting routers see the wavelength as busy and retune around it.
    Claim stuck;
    stuck.worm = kInvalidWorm;
    stuck.priority = std::numeric_limits<std::uint32_t>::max();
    stuck.entry = 0;
    stuck.release = std::numeric_limits<SimTime>::max();
    const EdgeId links = collection_.graph().link_count();
    for (EdgeId link = 0; link < links; ++link)
      for (Wavelength w = 0; w < config_.bandwidth; ++w)
        if (plan->wavelength_stuck(link, w)) registry_.claim(link, w, stuck);
  }
  const bool convert = config_.conversion != ConversionMode::None;
  if (convert) {
    if (wavelength_history_.size() < count) wavelength_history_.resize(count);
    for (WormId id = 0; id < count; ++id) wavelength_history_[id].clear();
  }

  // Materialize worm state: the Worm records plus the SoA mirrors the
  // hot loop reads (flat-link cursor, wavelength, status byte).
  worms_.assign(count, Worm{});
  cursor_.resize(count);
  cursor_end_.resize(count);
  wl_.resize(count);
  status_.assign(count, WormStatus::Waiting);
  for (WormId id = 0; id < count; ++id) {
    const LaunchSpec& spec = specs[id];
    OPTO_ASSERT(spec.path < collection_.size());
    OPTO_ASSERT(spec.length >= 1);
    OPTO_ASSERT(spec.wavelength < config_.bandwidth);
    Worm& worm = worms_[id];
    worm.path = spec.path;
    worm.wavelength = spec.wavelength;
    worm.priority = spec.priority;
    worm.start_time = spec.start_time;
    worm.original_length = spec.length;
    worm.length = spec.length;
    cursor_[id] = collection_.offset(spec.path);
    cursor_end_[id] = cursor_[id] + collection_.path(spec.path).length();
    wl_[id] = spec.wavelength;
  }

  // Injection order: by start time, ties in worm id (the order a stable
  // sort over the identity permutation would give). Start times fitting in
  // 31 bits — every practical workload — sort as packed (time << 32) | id
  // keys: one flat std::sort over POD integers beats a comparator that
  // chases worms_[] on every compare. Exotic start times fall back to the
  // indirect sort.
  injection_order_.resize(count);
  bool packable = true;
  for (WormId id = 0; id < count; ++id) {
    const SimTime start = worms_[id].start_time;
    if (start < 0 || start >= (SimTime{1} << 31)) {
      packable = false;
      break;
    }
  }
  if (packable) {
    injection_keys_.resize(count);
    for (WormId id = 0; id < count; ++id)
      injection_keys_[id] =
          (static_cast<std::uint64_t>(worms_[id].start_time) << 32) | id;
    std::sort(injection_keys_.begin(), injection_keys_.end());
    for (WormId i = 0; i < count; ++i)
      injection_order_[i] = static_cast<WormId>(injection_keys_[i]);
  } else {
    std::iota(injection_order_.begin(), injection_order_.end(), 0u);
    std::sort(injection_order_.begin(), injection_order_.end(),
              [this](WormId a, WormId b) {
                const SimTime sa = worms_[a].start_time;
                const SimTime sb = worms_[b].start_time;
                return sa != sb ? sa < sb : a < b;
              });
  }

  running_.clear();
  draining_.clear();
  running_.reserve(count);

  std::size_t next_injection = 0;
  SimTime now = count > 0 ? worms_[injection_order_.front()].start_time : 0;

  // The group key (≤ 22 bits under the channel budget; attempt_kernel.hpp)
  // and the worm id pack into one 64-bit sort word (see step 2 below).
  // Both fields are packed to their minimum widths so the radix sort
  // touches as few byte-passes as possible.
  const unsigned id_bits =
      std::bit_width(std::max<std::uint32_t>(count, 2) - 1);
  const std::uint64_t id_mask = (std::uint64_t{1} << id_bits) - 1;
  const unsigned link_bits = std::bit_width(
      std::max<EdgeId>(collection_.graph().link_count(), 2) - 1);
  const unsigned key_link_shift =
      static_cast<unsigned>(std::countr_zero(merge_bit_)) + 1;
  const unsigned radix_passes =
      (key_link_shift + link_bits + id_bits + 7) / 8;

  const auto finish_kill = [&](WormId id, SimTime t, WormId blocker) {
    Worm& worm = worms_[id];
    worm.status = WormStatus::Killed;
    status_[id] = WormStatus::Killed;
    worm.blocked_at_link = worm.head_index;
    worm.finish_time = t;
    ++result.metrics.killed;
    const PathView path = collection_.path(worm.path);
    result.trace.record({t, TraceKind::Kill, id, path.link(worm.head_index),
                         worm.wavelength, blocker});
    result.worms[id].blocked_by = blocker;
  };

  const auto finish_delivery = [&](WormId id, SimTime t) {
    Worm& worm = worms_[id];
    worm.status = WormStatus::Delivered;
    status_[id] = WormStatus::Delivered;
    worm.finish_time = t;
    if (worm.truncated)
      ++result.metrics.truncated_arrivals;
    else if (worm.corrupted)
      ++result.metrics.corrupted_arrivals;
    else
      ++result.metrics.delivered;
    result.trace.record(
        {t, TraceKind::Deliver, id, kInvalidEdge, worm.wavelength, kInvalidWorm});
  };

  /// Elimination by an injected fault — same mechanics as a serve-first
  /// loss (upstream flits drain, their occupancy stands), but accounted
  /// separately and witness-free: no worm caused it.
  const auto fault_kill = [&](WormId id, EdgeId link, SimTime t) {
    Worm& worm = worms_[id];
    worm.status = WormStatus::Killed;
    status_[id] = WormStatus::Killed;
    worm.fault_killed = true;
    worm.blocked_at_link = worm.head_index;
    worm.finish_time = t;
    ++result.metrics.fault_kills;
    result.trace.record(
        {t, TraceKind::FaultKill, id, link, worm.wavelength, kInvalidWorm});
  };

  /// Elimination by a held channel: same drain mechanics as a serve-first
  /// loss, witness-free like a fault kill, but accounted on its own — the
  /// channel is busy, not broken, so the protocol should retry without
  /// backing off.
  const auto pinned_kill = [&](WormId id, EdgeId link, SimTime t) {
    Worm& worm = worms_[id];
    worm.status = WormStatus::Killed;
    status_[id] = WormStatus::Killed;
    worm.pinned_killed = true;
    worm.blocked_at_link = worm.head_index;
    worm.finish_time = t;
    ++result.metrics.pinned_blocks;
    result.trace.record(
        {t, TraceKind::Kill, id, link, worm.wavelength, kInvalidWorm});
  };

  /// Admits `id` onto `link` at wavelength `wl` (its head enters now).
  const auto admit = [&](WormId id, EdgeId link, Wavelength wl, bool retuned) {
    Worm& worm = worms_[id];
    if (convert) {
      wavelength_history_[id].push_back(wl);
      worm.wavelength = wl;
      wl_[id] = wl;
    }
    Claim claim;
    claim.worm = id;
    claim.priority = worm.priority;
    claim.link_index = worm.head_index;
    claim.entry = now;
    claim.release = now + worm.length;
    registry_.claim(link, wl, claim);
    result.trace.record({now, retuned ? TraceKind::Retune : TraceKind::Admit,
                         id, link, wl, kInvalidWorm});
    if (retuned) ++result.metrics.retunes;
    // Flit corruption: the worm keeps travelling (and occupying links) but
    // its payload is void — the destination will reject the delivery.
    if (faults_on && !worm.corrupted && plan->corrupts_flit(id, link)) {
      worm.corrupted = true;
      ++result.metrics.corrupted;
      result.trace.record({now, TraceKind::Corrupt, id, link, wl, kInvalidWorm});
    }
    ++worm.head_index;
    ++cursor_[id];
    ++result.metrics.worm_steps;
    result.metrics.link_busy_steps += worm.length;
  };

  /// Conversion-free contention for one (link, wavelength) group.
  const auto resolve_fixed = [&](EdgeId link, Wavelength wl,
                                 std::span<const WormId> group) {
    // A held channel blocks every entrant as a busy channel, not a
    // contention event. It is checked before the registry, so it shadows
    // a stuck-wavelength sentinel on the same channel.
    if (held(link, wl)) {
      registry_.count_external_probe(true);
      for (const WormId entrant : group) pinned_kill(entrant, link, now);
      return;
    }
    const Claim* found = registry_.find(link, wl, now);

    // A stuck wavelength's sentinel claim blocks every entrant: a fault
    // loss, not a contention event (there is no worm to blame).
    if (found != nullptr && found->worm == kInvalidWorm) {
      for (const WormId entrant : group) fault_kill(entrant, link, now);
      return;
    }

    // Uncontended fast path: one entrant, free link — the dominant case on
    // sparse workloads. Skips the contender build and the resolver (which
    // would return exactly this admission) without touching any metric.
    if (found == nullptr && group.size() == 1) {
      admit(group.front(), link, wl, /*retuned=*/false);
      return;
    }

    contenders_.clear();
    for (const WormId entrant : group)
      contenders_.push_back({entrant, worms_[entrant].priority});

    std::optional<Contender> occupant_contender;
    // Copy what outlives registry mutation (admit() rewrites the claim).
    WormId occupant_worm = kInvalidWorm;
    std::uint32_t occupant_link_index = 0;
    if (found != nullptr) {
      occupant_contender = Contender{found->worm, found->priority};
      occupant_worm = found->worm;
      occupant_link_index = found->link_index;
    }

    if (found != nullptr || contenders_.size() > 1)
      ++result.metrics.contentions;

    const ContentionOutcome outcome = resolve_contention(
        config_.rule, config_.tie, occupant_contender, contenders_);

    if (outcome.occupant_truncated)
      apply_truncation(occupant_worm, occupant_link_index, now, result);

    for (const Contender& entrant : contenders_) {
      const WormId loser = entrant.worm;
      if (loser == outcome.admitted) continue;
      // Witness (Lemma 2.2): the worm that prevented this one — the
      // occupant, else the admitted worm, else a dead-heat peer.
      WormId blocker = kInvalidWorm;
      if (occupant_worm != kInvalidWorm)
        blocker = occupant_worm;
      else if (outcome.admitted != kInvalidWorm)
        blocker = outcome.admitted;
      else
        blocker = loser == contenders_.front().worm
                      ? contenders_.back().worm
                      : contenders_.front().worm;
      finish_kill(loser, now, blocker);
    }

    if (outcome.admitted != kInvalidWorm)
      admit(outcome.admitted, link, wl, /*retuned=*/false);
  };

  const Claim held_claim{kPinnedWorm,
                         std::numeric_limits<std::uint32_t>::max(), 0, 0,
                         std::numeric_limits<SimTime>::max()};

  /// Contention for one link at a converting router: entrants may retune
  /// to any free wavelength. Serve-first scans entrants in input-port
  /// (worm id) order; priority scans in descending rank and may steal the
  /// weakest occupant's wavelength when none is free.
  const auto resolve_converting = [&](EdgeId link,
                                      std::span<const WormId> group) {
    const std::uint16_t bandwidth = config_.bandwidth;
    // Live occupants and same-step admissions per wavelength; a held λ
    // reads as the permanent top-priority pinned occupant.
    conv_occupant_.assign(bandwidth, std::nullopt);
    conv_admitted_.assign(bandwidth, kInvalidWorm);
    for (Wavelength w = 0; w < bandwidth; ++w) {
      if (held(link, w)) {
        registry_.count_external_probe(true);
        conv_occupant_[w] = held_claim;
      } else {
        conv_occupant_[w] = registry_.occupant(link, w, now);
      }
    }

    conv_order_.assign(group.begin(), group.end());
    if (config_.rule == ContentionRule::Priority) {
      std::sort(conv_order_.begin(), conv_order_.end(),
                [this](WormId a, WormId b) {
                  return worms_[a].priority > worms_[b].priority;
                });
    } else {
      std::sort(conv_order_.begin(), conv_order_.end());
    }

    const auto is_free = [&](Wavelength w) {
      return !conv_occupant_[w].has_value() &&
             conv_admitted_[w] == kInvalidWorm;
    };
    const auto lowest_free = [&]() -> std::int32_t {
      for (Wavelength w = 0; w < bandwidth; ++w)
        if (is_free(w)) return w;
      return -1;
    };

    for (const WormId id : conv_order_) {
      Worm& worm = worms_[id];
      const Wavelength preferred = worm.wavelength;
      if (is_free(preferred)) {
        admit(id, link, preferred, /*retuned=*/false);
        conv_admitted_[preferred] = id;
        continue;
      }
      // Per-event accounting, matching resolve_fixed: every entrant that
      // finds its preferred wavelength taken is one contention event.
      ++result.metrics.contentions;
      if (const std::int32_t w = lowest_free(); w >= 0) {
        admit(id, link, static_cast<Wavelength>(w), /*retuned=*/true);
        conv_admitted_[static_cast<Wavelength>(w)] = id;
        continue;
      }
      if (config_.rule == ContentionRule::Priority) {
        // No free wavelength: challenge the weakest pre-existing occupant
        // (same-step admissions are head-to-head and cannot be cut).
        std::int32_t weakest = -1;
        for (Wavelength w = 0; w < bandwidth; ++w) {
          if (!conv_occupant_[w].has_value()) continue;
          if (weakest < 0 ||
              conv_occupant_[w]->priority <
                  conv_occupant_[static_cast<Wavelength>(weakest)]->priority)
            weakest = w;
        }
        if (weakest >= 0) {
          const auto wl = static_cast<Wavelength>(weakest);
          if (conv_occupant_[wl]->priority < worm.priority) {
            apply_truncation(conv_occupant_[wl]->worm,
                             conv_occupant_[wl]->link_index, now, result);
            admit(id, link, wl, /*retuned=*/wl != preferred);
            conv_admitted_[wl] = id;
            conv_occupant_[wl].reset();
            continue;
          }
        }
      }
      // Eliminated: witness is whoever holds the preferred wavelength. A
      // stuck wavelength's sentinel (worm = kInvalidWorm) has no worm to
      // blame — that elimination is a fault loss; a held channel
      // (kPinnedWorm) is merely busy.
      const WormId blocker = conv_occupant_[preferred].has_value()
                                 ? conv_occupant_[preferred]->worm
                                 : conv_admitted_[preferred];
      if (blocker == kInvalidWorm)
        fault_kill(id, link, now);
      else if (blocker == kPinnedWorm)
        pinned_kill(id, link, now);
      else
        finish_kill(id, now, blocker);
    }
  };

  while (next_injection < count || !running_.empty() || !draining_.empty()) {
    // Fast-forward across idle gaps (large startup-delay ranges leave long
    // stretches with nothing in flight).
    if (running_.empty() && draining_.empty()) {
      OPTO_ASSERT(next_injection < count);
      now = std::max(now, worms_[injection_order_[next_injection]].start_time);
    }
    ++result.metrics.steps;

    // 1. Inject worms whose startup delay expired.
    while (next_injection < count &&
           worms_[injection_order_[next_injection]].start_time <= now) {
      const WormId id = injection_order_[next_injection++];
      Worm& worm = worms_[id];
      OPTO_ASSERT(worm.status == WormStatus::Waiting);
      worm.status = WormStatus::Running;
      status_[id] = WormStatus::Running;
      ++result.metrics.launched;
      const PathView path = collection_.path(worm.path);
      result.trace.record({now, TraceKind::Inject, id,
                           path.empty() ? kInvalidEdge : path.link(0),
                           worm.wavelength, kInvalidWorm});
      if (path.empty()) {
        // Zero-length path: source == destination, no link contention.
        finish_delivery(id, now);
      } else {
        running_.push_back(id);
      }
    }
    result.metrics.peak_inflight =
        std::max<std::uint64_t>(result.metrics.peak_inflight,
                                running_.size() + draining_.size());

    // 2. Collect this step's link-entry attempts. Every running worm's
    //    head enters a link every step (worms never stall). Grouping key:
    //    (link, wavelength) normally; link only at converting routers
    //    (entrants on different wavelengths interact there). The group
    //    key and worm id pack into one 64-bit integer, so the per-step
    //    sort — the hottest loop in the engine — runs over flat PODs.
    // 3. Resolve contention groups in ascending (key, worm) order.
    // A worm whose next link is dark — or whose feeding coupler is down —
    // is eliminated before it can contend, exactly like a serve-first
    // loss: its upstream flits drain and their occupancy stands.
    const auto fault_blocks_entry = [&](EdgeId link) {
      return plan->link_down(link, now) ||
             plan->coupler_down(collection_.graph().source(link), now);
    };
    if (!faults_on) {
      // Fault-free steps build every attempt word in SIMD lanes
      // (attempt_kernel.hpp): one gather of the pre-baked link/merge
      // half plus a masked OR of the wavelength per worm.
      for ([[maybe_unused]] const WormId id : running_) {
        OPTO_DASSERT(status_[id] == WormStatus::Running);
        OPTO_DASSERT(worms_[id].entry_time(worms_[id].head_index) == now);
      }
      attempt_keys_.resize(running_.size());
      attempt::build_keys(running_, cursor_.data(), flat_keys_.data(),
                          wl_.data(), merge_bit_, id_bits, simd_on_,
                          attempt_keys_.data());
    } else {
      attempt_keys_.clear();
      for (WormId id : running_) {
        OPTO_DASSERT(status_[id] == WormStatus::Running);
        OPTO_DASSERT(worms_[id].entry_time(worms_[id].head_index) == now);
        // Fault elimination interleaves with key build, so faulty
        // passes keep the scalar loop (same key formula as the kernel).
        const EdgeId link = flat_links_[cursor_[id]];
        if (fault_blocks_entry(link)) {
          fault_kill(id, link, now);
          continue;
        }
        const std::uint32_t fk = flat_keys_[cursor_[id]];
        const std::uint32_t key =
            fk | ((fk & merge_bit_) != 0 ? 0u : wl_[id]);
        attempt_keys_.push_back((static_cast<std::uint64_t>(key) << id_bits) |
                                id);
      }
    }
    // Small steps sort faster with introsort; large ones with the
    // byte-wise radix passes (the crossover is broad — anywhere in the
    // low hundreds behaves the same).
    if (attempt_keys_.size() < 128)
      std::sort(attempt_keys_.begin(), attempt_keys_.end());
    else
      radix_sort(attempt_keys_, attempt_keys_scratch_, radix_passes);
    // Pre-screen the sorted words: a singleton fixed-wavelength group
    // whose channel is free in the registry admits immediately —
    // no group build, no find(). Runs in every lane mode (the kernel
    // dispatch handles the level), so metrics and traces are identical
    // by construction; see prescan_free_singletons for the legality
    // argument. Faulty passes skip it (stuck sentinels and down links
    // need the resolvers).
    // Below a few dozen attempts the extra pass over the keys costs
    // about what the skipped find() calls save; the gate is a pure
    // throughput heuristic — the mask path and the group path produce
    // identical outcomes, metrics, and traces, so step size can never
    // change results. The mask sees only registry claims, so a flagged
    // singleton on a held channel falls through to the group path.
    const bool prescan = !faults_on && attempt_keys_.size() >= 32;
    if (prescan) {
      admit_mask_.resize(attempt_keys_.size());
      attempt::prescan_free_singletons(
          attempt_keys_, id_bits, merge_bit_, config_.bandwidth,
          registry_.epochs(), registry_.epoch(), registry_.releases(), now,
          simd_on_, admit_mask_.data());
    }
    for (std::size_t lo = 0; lo < attempt_keys_.size();) {
      const std::uint64_t key = attempt_keys_[lo] >> id_bits;
      if (prescan && admit_mask_[lo] != 0) {
        const auto link = static_cast<EdgeId>(key >> key_link_shift);
        const auto wl = static_cast<Wavelength>(key & (merge_bit_ - 1));
        if (!held(link, wl)) {
          // The skipped find() was one probe that would have missed;
          // keep the registry stats identical to the slow path.
          registry_.count_external_probe(false);
          admit(static_cast<WormId>(attempt_keys_[lo] & id_mask), link, wl,
                /*retuned=*/false);
          ++lo;
          continue;
        }
      }
      group_worms_.clear();
      std::size_t hi = lo;
      while (hi < attempt_keys_.size() &&
             (attempt_keys_[hi] >> id_bits) == key)
        group_worms_.push_back(
            static_cast<WormId>(attempt_keys_[hi++] & id_mask));
      const auto link = static_cast<EdgeId>(key >> key_link_shift);
      const std::span<const WormId> group{group_worms_};
      if ((key & merge_bit_) != 0)
        resolve_converting(link, group);
      else
        resolve_fixed(link, static_cast<Wavelength>(key & (merge_bit_ - 1)),
                      group);
      lo = hi;
    }

    // 4. Re-partition the running set: drop kills (and drains finalized
    //    early by a truncation), move finished heads to the draining set.
    std::size_t keep = 0;
    for (WormId id : running_) {
      if (status_[id] != WormStatus::Running) continue;
      OPTO_DASSERT(worms_[id].status == WormStatus::Running);
      if (cursor_[id] == cursor_end_[id])  // head entered its last link
        draining_.push_back(id);
      else
        running_[keep++] = id;
    }
    running_.resize(keep);

    // 5. Finalize drained deliveries. The tail leaves the last link at
    //    entry_last + length − 1; a truncation that pulls that below `now`
    //    finalizes inside apply_truncation, so `done` is never stale here.
    keep = 0;
    for (WormId id : draining_) {
      if (status_[id] != WormStatus::Running) continue;  // finalized early
      Worm& worm = worms_[id];
      const PathView path = collection_.path(worm.path);
      const SimTime done =
          worm.entry_time(path.length() - 1) + worm.length - 1;
      if (now >= done)
        finish_delivery(id, done);
      else
        draining_[keep++] = id;
    }
    draining_.resize(keep);

    ++now;
  }

  // Publish per-worm outcomes and the makespan.
  for (WormId id = 0; id < count; ++id) {
    const Worm& worm = worms_[id];
    OPTO_ASSERT(worm.status == WormStatus::Delivered ||
                worm.status == WormStatus::Killed);
    WormOutcome& outcome = result.worms[id];
    outcome.status = worm.status;
    outcome.truncated = worm.truncated;
    outcome.corrupted = worm.corrupted;
    // Attribution mirrors finish_delivery's precedence: a truncated-and-
    // corrupted arrival already failed to contention before the fault
    // could matter.
    outcome.fault_loss =
        worm.fault_killed || (worm.status == WormStatus::Delivered &&
                              worm.corrupted && !worm.truncated);
    outcome.pinned_loss = worm.pinned_killed;
    outcome.finish_time = worm.finish_time;
    outcome.blocked_at_link = worm.blocked_at_link;
    result.metrics.makespan =
        std::max(result.metrics.makespan, worm.finish_time);
  }
  // Flatten per-worm wavelength histories for the caller (the streaming
  // engine pins delivered worms' channels from these). Conversion-free
  // passes skip it: the launch wavelength holds on every link.
  result.wavelength_offsets.clear();
  result.wavelengths.clear();
  if (convert) {
    result.wavelength_offsets.reserve(count + 1);
    result.wavelength_offsets.push_back(0);
    for (WormId id = 0; id < count; ++id) {
      result.wavelengths.insert(result.wavelengths.end(),
                                wavelength_history_[id].begin(),
                                wavelength_history_[id].end());
      result.wavelength_offsets.push_back(
          static_cast<std::uint32_t>(result.wavelengths.size()));
    }
  }
  result.metrics.registry_probes = registry_.stats().probes;
  result.metrics.registry_hits = registry_.stats().hits;
  if (profile)
    result.metrics.wall_ns =
        static_cast<std::uint64_t>(timer->elapsed_seconds() * 1e9);
  if (obs::enabled()) record_pass_observation(result.metrics);
}

}  // namespace opto
