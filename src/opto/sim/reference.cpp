#include "opto/sim/reference.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <optional>
#include <vector>

#include "opto/util/assert.hpp"

namespace opto {
namespace {

struct RefWorm {
  PathId path = kInvalidPath;
  Wavelength wavelength = 0;  ///< current (retunes update it)
  std::uint32_t priority = 0;
  SimTime start = 0;
  std::uint32_t length = 0;    ///< original flit count
  std::uint32_t entered = 0;   ///< links the head was admitted onto
  std::vector<Wavelength> history;  ///< wavelength per entered link
  bool injected = false;
  bool killed = false;
  std::uint32_t kill_index = 0;
  SimTime kill_time = -1;
  WormId blocker = kInvalidWorm;
  bool pinned = false;  ///< eliminated by a held (pinned) channel
  bool truncated = false;
  /// Priority cuts: (link index, time); flits crossing that coupler at or
  /// after the time are discarded.
  std::vector<std::pair<std::uint32_t, SimTime>> cuts;
  bool finished = false;
  SimTime finish = -1;
};

/// Flits that make it through the coupler at path position `pos`.
std::uint32_t stream_length(const RefWorm& worm, std::uint32_t pos) {
  SimTime limit = worm.length;
  for (const auto& [cut_pos, cut_time] : worm.cuts)
    if (cut_pos <= pos)
      limit = std::min<SimTime>(limit, cut_time - worm.start - cut_pos);
  return static_cast<std::uint32_t>(std::max<SimTime>(0, limit));
}

}  // namespace

PassResult reference_run(const PathCollection& collection,
                         const SimConfig& config,
                         std::span<const LaunchSpec> specs,
                         std::span<const PinnedSlot> pinned) {
  PassResult result;
  result.trace = Trace(false);
  const auto count = static_cast<WormId>(specs.size());
  result.worms.resize(count);

  // Held channels as a dense (link, wavelength) bitmap, built here from
  // the slot list rather than shared with the fast engine's mask.
  std::vector<char> pinned_map;
  if (!pinned.empty()) {
    pinned_map.assign(
        static_cast<std::size_t>(collection.graph().link_count()) *
            config.bandwidth,
        0);
    for (const PinnedSlot& slot : pinned) {
      OPTO_ASSERT(slot.link < collection.graph().link_count());
      OPTO_ASSERT(slot.wavelength < config.bandwidth);
      pinned_map[static_cast<std::size_t>(slot.link) * config.bandwidth +
                 slot.wavelength] = 1;
    }
  }
  const auto pinned_at = [&](EdgeId link, Wavelength wavelength) {
    return !pinned_map.empty() &&
           pinned_map[static_cast<std::size_t>(link) * config.bandwidth +
                      wavelength] != 0;
  };

  const auto converts_at = [&config](NodeId node) {
    switch (config.conversion) {
      case ConversionMode::None:
        return false;
      case ConversionMode::Full:
        return true;
      case ConversionMode::Sparse:
        return config.converters[node] != 0;
    }
    return false;
  };

  std::vector<RefWorm> worms(count);
  for (WormId id = 0; id < count; ++id) {
    const LaunchSpec& spec = specs[id];
    OPTO_ASSERT(spec.path < collection.size());
    OPTO_ASSERT(spec.length >= 1);
    OPTO_ASSERT(spec.wavelength < config.bandwidth);
    RefWorm& worm = worms[id];
    worm.path = spec.path;
    worm.wavelength = spec.wavelength;
    worm.priority = spec.priority;
    worm.start = spec.start_time;
    worm.length = spec.length;
  }

  /// Does worm `w` occupy (link, wavelength) at time t? If so, at which
  /// path position?
  const auto occupies = [&](WormId id, EdgeId link, Wavelength wavelength,
                            SimTime t) -> std::optional<std::uint32_t> {
    const RefWorm& worm = worms[id];
    if (!worm.injected) return std::nullopt;
    const PathView path = collection.path(worm.path);
    for (std::uint32_t i = 0; i < worm.entered; ++i) {
      if (path.link(i) != link) continue;
      if (worm.history[i] != wavelength) return std::nullopt;
      const SimTime flit = t - worm.start - static_cast<SimTime>(i);
      if (flit >= 0 && flit < static_cast<SimTime>(stream_length(worm, i)))
        return i;
      return std::nullopt;  // simple paths: one visit per link
    }
    return std::nullopt;
  };

  // Time loop.
  std::vector<WormId> order(count);
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), [&worms](WormId a, WormId b) {
    return worms[a].start < worms[b].start;
  });
  std::size_t next_injection = 0;
  SimTime now = count > 0 ? worms[order.front()].start : 0;

  struct Attempt {
    std::uint64_t key;
    WormId worm;
  };
  std::vector<Attempt> attempts;
  std::vector<Contender> contenders;

  const auto pending_work = [&] {
    if (next_injection < count) return true;
    for (const RefWorm& worm : worms) {
      if (worm.killed || worm.finished) continue;
      return true;
    }
    return false;
  };

  const auto kill = [&](WormId id, WormId blocker) {
    RefWorm& worm = worms[id];
    worm.killed = true;
    worm.kill_index = worm.entered;
    worm.kill_time = now;
    worm.blocker = blocker;
    ++result.metrics.killed;
  };

  const auto pinned_kill = [&](WormId id) {
    RefWorm& worm = worms[id];
    worm.killed = true;
    worm.pinned = true;
    worm.kill_index = worm.entered;
    worm.kill_time = now;
    worm.blocker = kInvalidWorm;
    ++result.metrics.pinned_blocks;
  };

  const auto cut = [&](WormId victim, std::uint32_t pos) {
    RefWorm& worm = worms[victim];
    worm.cuts.emplace_back(pos, now);
    worm.truncated = true;
    ++result.metrics.truncated;
  };

  const auto admit = [&](WormId id, Wavelength wavelength, bool retuned) {
    RefWorm& worm = worms[id];
    worm.history.push_back(wavelength);
    worm.wavelength = wavelength;
    ++worm.entered;
    ++result.metrics.worm_steps;
    if (retuned) ++result.metrics.retunes;
  };

  /// Occupant of (link, wavelength) among non-entrants, with its position.
  const auto find_occupant =
      [&](EdgeId link, Wavelength wavelength,
          std::span<const Attempt> group)
      -> std::optional<std::pair<WormId, std::uint32_t>> {
    std::optional<std::pair<WormId, std::uint32_t>> found;
    for (WormId id = 0; id < count; ++id) {
      bool is_entrant = false;
      for (const Attempt& attempt : group)
        is_entrant |= attempt.worm == id;
      if (is_entrant) continue;
      if (const auto pos = occupies(id, link, wavelength, now)) {
        OPTO_ASSERT_MSG(!found.has_value(),
                        "two occupants on one (link, wavelength)");
        found = {id, *pos};
      }
    }
    return found;
  };

  const auto resolve_fixed = [&](EdgeId link, Wavelength wavelength,
                                 std::span<const Attempt> group) {
    // A pinned channel eliminates every entrant before any contention
    // bookkeeping — mirrors the fast engine's sentinel-claim short-circuit.
    if (pinned_at(link, wavelength)) {
      for (const Attempt& attempt : group) pinned_kill(attempt.worm);
      return;
    }
    contenders.clear();
    for (const Attempt& attempt : group)
      contenders.push_back(
          {attempt.worm, worms[attempt.worm].priority});
    const auto occupant = find_occupant(link, wavelength, group);
    std::optional<Contender> occupant_contender;
    if (occupant.has_value())
      occupant_contender =
          Contender{occupant->first, worms[occupant->first].priority};
    if (occupant.has_value() || contenders.size() > 1)
      ++result.metrics.contentions;

    const ContentionOutcome outcome =
        resolve_contention(config.rule, config.tie, occupant_contender,
                           contenders);
    if (outcome.occupant_truncated) cut(occupant->first, occupant->second);
    for (const Contender& entrant : contenders) {
      const WormId loser = entrant.worm;
      if (loser == outcome.admitted) continue;
      WormId blocker = kInvalidWorm;
      if (occupant.has_value())
        blocker = occupant->first;
      else if (outcome.admitted != kInvalidWorm)
        blocker = outcome.admitted;
      else
        blocker = loser == contenders.front().worm
                      ? contenders.back().worm
                      : contenders.front().worm;
      kill(loser, blocker);
    }
    if (outcome.admitted != kInvalidWorm)
      admit(outcome.admitted, wavelength, /*retuned=*/false);
  };

  /// Mirrors Simulator's converting-coupler policy against the reference
  /// occupancy bookkeeping.
  const auto resolve_converting = [&](EdgeId link,
                                      std::span<const Attempt> group) {
    const std::uint16_t bandwidth = config.bandwidth;
    std::vector<std::optional<std::pair<WormId, std::uint32_t>>> occupant(
        bandwidth);
    std::vector<WormId> admitted(bandwidth, kInvalidWorm);
    for (Wavelength w = 0; w < bandwidth; ++w)
      occupant[w] = find_occupant(link, w, group);

    std::vector<WormId> order_ids;
    for (const Attempt& attempt : group) order_ids.push_back(attempt.worm);
    if (config.rule == ContentionRule::Priority) {
      std::sort(order_ids.begin(), order_ids.end(),
                [&worms](WormId a, WormId b) {
                  return worms[a].priority > worms[b].priority;
                });
    } else {
      std::sort(order_ids.begin(), order_ids.end());
    }

    const auto is_free = [&](Wavelength w) {
      return !occupant[w].has_value() && admitted[w] == kInvalidWorm &&
             !pinned_at(link, w);
    };
    const auto lowest_free = [&]() -> std::int32_t {
      for (Wavelength w = 0; w < bandwidth; ++w)
        if (is_free(w)) return w;
      return -1;
    };

    for (const WormId id : order_ids) {
      RefWorm& worm = worms[id];
      const Wavelength preferred = worm.wavelength;
      if (is_free(preferred)) {
        admit(id, preferred, /*retuned=*/false);
        admitted[preferred] = id;
        continue;
      }
      // Per-event accounting, matching resolve_fixed: every entrant that
      // finds its preferred wavelength taken is one contention event.
      ++result.metrics.contentions;
      if (const std::int32_t w = lowest_free(); w >= 0) {
        admit(id, static_cast<Wavelength>(w), /*retuned=*/true);
        admitted[static_cast<Wavelength>(w)] = id;
        continue;
      }
      if (config.rule == ContentionRule::Priority) {
        std::int32_t weakest = -1;
        for (Wavelength w = 0; w < bandwidth; ++w) {
          if (!occupant[w].has_value()) continue;
          if (weakest < 0 ||
              worms[occupant[w]->first].priority <
                  worms[occupant[static_cast<Wavelength>(weakest)]->first]
                      .priority)
            weakest = w;
        }
        if (weakest >= 0) {
          const auto wl = static_cast<Wavelength>(weakest);
          if (worms[occupant[wl]->first].priority < worm.priority) {
            cut(occupant[wl]->first, occupant[wl]->second);
            admit(id, wl, /*retuned=*/wl != preferred);
            admitted[wl] = id;
            occupant[wl].reset();
            continue;
          }
        }
      }
      if (!occupant[preferred].has_value() &&
          admitted[preferred] == kInvalidWorm && pinned_at(link, preferred)) {
        pinned_kill(id);
        continue;
      }
      const WormId blocker = occupant[preferred].has_value()
                                 ? occupant[preferred]->first
                                 : admitted[preferred];
      kill(id, blocker);
    }
  };

  while (pending_work()) {
    // Fast-forward idle gaps.
    bool anything_moving = false;
    for (const RefWorm& worm : worms)
      anything_moving |= worm.injected && !worm.killed && !worm.finished;
    if (!anything_moving && next_injection < count)
      now = std::max(now, worms[order[next_injection]].start);

    // Injections.
    while (next_injection < count &&
           worms[order[next_injection]].start <= now) {
      const WormId id = order[next_injection++];
      RefWorm& worm = worms[id];
      worm.injected = true;
      ++result.metrics.launched;
      if (collection.path(worm.path).empty()) {
        worm.finished = true;
        worm.finish = now;
        ++result.metrics.delivered;
      }
    }

    // Entry attempts: running worms whose head is due now.
    attempts.clear();
    for (WormId id = 0; id < count; ++id) {
      const RefWorm& worm = worms[id];
      if (!worm.injected || worm.killed || worm.finished) continue;
      const PathView path = collection.path(worm.path);
      if (worm.entered >= path.length()) continue;  // draining to delivery
      OPTO_DASSERT(worm.start + worm.entered == now);
      const EdgeId link = path.link(worm.entered);
      const bool merge =
          config.conversion != ConversionMode::None &&
          converts_at(collection.graph().source(link));
      const std::uint64_t key = (static_cast<std::uint64_t>(link) << 17) |
                                (merge ? 0x10000u : worm.wavelength);
      attempts.push_back({key, id});
    }
    std::sort(attempts.begin(), attempts.end(),
              [](const Attempt& a, const Attempt& b) {
                return a.key != b.key ? a.key < b.key : a.worm < b.worm;
              });

    for (std::size_t lo = 0; lo < attempts.size();) {
      std::size_t hi = lo;
      while (hi < attempts.size() && attempts[hi].key == attempts[lo].key)
        ++hi;
      const auto link = static_cast<EdgeId>(attempts[lo].key >> 17);
      const std::span<const Attempt> group{attempts.data() + lo, hi - lo};
      if ((attempts[lo].key & 0x10000u) != 0)
        resolve_converting(link, group);
      else
        resolve_fixed(link,
                      static_cast<Wavelength>(attempts[lo].key & 0xffffu),
                      group);
      lo = hi;
    }

    // Deliveries: tail of the (possibly cut) stream left the last link.
    for (WormId id = 0; id < count; ++id) {
      RefWorm& worm = worms[id];
      if (!worm.injected || worm.killed || worm.finished) continue;
      const PathView path = collection.path(worm.path);
      if (worm.entered < path.length()) continue;
      const std::uint32_t last = path.length() - 1;
      const SimTime done = worm.start + static_cast<SimTime>(last) +
                           stream_length(worm, last) - 1;
      if (now >= done) {
        worm.finished = true;
        worm.finish = done;
        if (worm.truncated)
          ++result.metrics.truncated_arrivals;
        else
          ++result.metrics.delivered;
      }
    }

    ++now;
  }

  for (WormId id = 0; id < count; ++id) {
    const RefWorm& worm = worms[id];
    WormOutcome& outcome = result.worms[id];
    if (worm.killed) {
      outcome.status = WormStatus::Killed;
      outcome.finish_time = worm.kill_time;
      outcome.blocked_at_link = worm.kill_index;
      outcome.blocked_by = worm.blocker;
    } else {
      OPTO_ASSERT(worm.finished);
      outcome.status = WormStatus::Delivered;
      outcome.finish_time = worm.finish;
    }
    outcome.truncated = worm.truncated;
    outcome.pinned_loss = worm.pinned;
    result.metrics.makespan =
        std::max(result.metrics.makespan, outcome.finish_time);
  }
  return result;
}

}  // namespace opto
