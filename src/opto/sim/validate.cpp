#include "opto/sim/validate.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "opto/util/assert.hpp"

namespace opto {
namespace {

std::string describe(WormId id, const char* what) {
  std::ostringstream os;
  os << "worm " << id << ": " << what;
  return os.str();
}

/// Index of `link` on the worm's path, or -1.
std::int64_t link_index(PathView path, EdgeId link) {
  for (std::uint32_t i = 0; i < path.length(); ++i)
    if (path.link(i) == link) return i;
  return -1;
}

}  // namespace

ValidationReport validate_pass(const PathCollection& collection,
                               const SimConfig& config,
                               std::span<const LaunchSpec> specs,
                               const PassResult& result) {
  ValidationReport report;
  const auto complain = [&report](const std::string& message) {
    report.violations.push_back(message);
  };

  if (result.worms.size() != specs.size()) {
    complain("outcome count does not match launch count");
    return report;
  }

  std::uint64_t delivered = 0, killed = 0, truncated_arrivals = 0;
  std::uint64_t fault_kills = 0, pinned_blocks = 0, corrupted_arrivals = 0;
  SimTime makespan = 0;
  for (WormId id = 0; id < specs.size(); ++id) {
    const WormOutcome& outcome = result.worms[id];
    const LaunchSpec& spec = specs[id];
    const PathView path = collection.path(spec.path);
    makespan = std::max(makespan, outcome.finish_time);

    switch (outcome.status) {
      case WormStatus::Delivered: {
        if (outcome.truncated)
          ++truncated_arrivals;
        else if (outcome.corrupted)
          ++corrupted_arrivals;
        else
          ++delivered;
        // A corrupted delivery is a fault loss; any other delivery isn't.
        if (outcome.fault_loss != (outcome.corrupted && !outcome.truncated))
          complain(describe(id, "delivery fault_loss flag inconsistent"));
        if (path.empty()) {
          if (outcome.finish_time != spec.start_time)
            complain(describe(id, "zero-length path finish != start"));
          break;
        }
        const SimTime head_done =
            spec.start_time + static_cast<SimTime>(path.length()) - 1;
        const SimTime full = head_done + spec.length - 1;
        if (outcome.finish_time < head_done || outcome.finish_time > full)
          complain(describe(id, "delivery finish time out of range"));
        if (!outcome.truncated && outcome.finish_time != full)
          complain(describe(id, "intact delivery must take exactly "
                                "start + len(path) + L - 2 steps"));
        break;
      }
      case WormStatus::Killed: {
        if (outcome.blocked_at_link >= path.length()) {
          complain(describe(id, "blocked past the end of the path"));
          break;
        }
        const SimTime blocked_at =
            spec.start_time + outcome.blocked_at_link;
        if (outcome.finish_time != blocked_at)
          complain(describe(id, "kill time != entry time of blocked link"));
        if (outcome.fault_loss) {
          // Fault kills (dark link, failed coupler, stuck wavelength) are
          // witness-free by design: no worm caused them.
          ++fault_kills;
          if (outcome.blocked_by != kInvalidWorm)
            complain(describe(id, "fault kill must not name a witness"));
          break;
        }
        if (outcome.pinned_loss) {
          // Pinned blocks (a channel held by an established connection)
          // are witness-free too: the blocker is not a pass worm.
          ++pinned_blocks;
          if (outcome.blocked_by != kInvalidWorm)
            complain(describe(id, "pinned block must not name a witness"));
          break;
        }
        ++killed;
        const WormId blocker = outcome.blocked_by;
        if (blocker == kInvalidWorm || blocker >= specs.size() ||
            blocker == id) {
          complain(describe(id, "missing or invalid witness"));
          break;
        }
        const EdgeId blocked_link = path.link(outcome.blocked_at_link);
        if (link_index(collection.path(specs[blocker].path), blocked_link) <
            0)
          complain(describe(id, "witness does not use the blocked link"));
        if (config.conversion == ConversionMode::None &&
            specs[id].wavelength != specs[blocker].wavelength)
          complain(describe(id, "witness uses a different wavelength"));
        break;
      }
      default:
        complain(describe(id, "worm left unresolved"));
    }
  }

  if (result.metrics.delivered != delivered)
    complain("metrics.delivered mismatch");
  if (result.metrics.killed != killed)
    complain("metrics.killed mismatch");
  if (result.metrics.fault_kills != fault_kills)
    complain("metrics.fault_kills mismatch");
  if (result.metrics.pinned_blocks != pinned_blocks)
    complain("metrics.pinned_blocks mismatch");
  if (result.metrics.corrupted_arrivals != corrupted_arrivals)
    complain("metrics.corrupted_arrivals mismatch");
  if (result.metrics.truncated_arrivals != truncated_arrivals)
    complain("metrics.truncated_arrivals mismatch");
  if (result.metrics.launched != specs.size())
    complain("metrics.launched mismatch");
  if (!specs.empty() && result.metrics.makespan != makespan)
    complain("metrics.makespan != max finish time");
  return report;
}

ValidationReport validate_occupancy(const PathCollection& collection,
                                    std::span<const LaunchSpec> specs,
                                    const PassResult& result) {
  ValidationReport report;
  if (!result.trace.enabled()) {
    report.violations.push_back(
        "occupancy validation requires record_trace = true");
    return report;
  }

  // Reconstruct per-worm cut lists from Truncate events.
  struct Cut {
    std::uint32_t pos;
    SimTime time;
  };
  std::vector<std::vector<Cut>> cuts(specs.size());
  for (const TraceEvent& event : result.trace.events()) {
    if (event.kind != TraceKind::Truncate) continue;
    const auto idx =
        link_index(collection.path(specs[event.worm].path), event.link);
    if (idx < 0) {
      report.violations.push_back("truncation on a link not on the path");
      continue;
    }
    cuts[event.worm].push_back({static_cast<std::uint32_t>(idx), event.time});
  }
  const auto stream_length = [&](WormId id, std::uint32_t pos) {
    SimTime limit = specs[id].length;
    for (const Cut& cut : cuts[id])
      if (cut.pos <= pos)
        limit = std::min<SimTime>(
            limit, cut.time - specs[id].start_time - cut.pos);
    return std::max<SimTime>(0, limit);
  };

  // Admission windows per (link, wavelength): [entry, entry + stream − 1].
  std::map<std::pair<EdgeId, Wavelength>,
           std::vector<std::pair<SimTime, SimTime>>>
      windows;
  for (const TraceEvent& event : result.trace.events()) {
    if (event.kind != TraceKind::Admit && event.kind != TraceKind::Retune)
      continue;
    const auto idx =
        link_index(collection.path(specs[event.worm].path), event.link);
    if (idx < 0) {
      report.violations.push_back("admission on a link not on the path");
      continue;
    }
    const SimTime stream =
        stream_length(event.worm, static_cast<std::uint32_t>(idx));
    if (stream <= 0) continue;  // fully cut at/before this coupler
    windows[{event.link, event.wavelength}].emplace_back(
        event.time, event.time + stream - 1);
  }
  for (auto& [key, list] : windows) {
    std::sort(list.begin(), list.end());
    for (std::size_t i = 1; i < list.size(); ++i) {
      if (list[i].first <= list[i - 1].second) {
        std::ostringstream os;
        os << "overlapping occupancy on link " << key.first << " wavelength "
           << key.second << ": [" << list[i - 1].first << ","
           << list[i - 1].second << "] vs [" << list[i].first << ","
           << list[i].second << "]";
        report.violations.push_back(os.str());
      }
    }
  }
  return report;
}

}  // namespace opto
