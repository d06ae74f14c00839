#include "opto/core/multi_hop.hpp"

#include <algorithm>
#include <numeric>

#include "opto/util/assert.hpp"

namespace opto {

MultiHopTrialAndFailure::MultiHopTrialAndFailure(
    const PathCollection& collection, MultiHopConfig config,
    DeltaSchedule& schedule)
    : worm_count_(collection.size()),
      config_(config),
      schedule_(schedule),
      segments_(collection.graph_ptr()),
      segment_ids_(collection.size()) {
  OPTO_ASSERT(config_.hop_spacing >= 1);
  OPTO_ASSERT(config_.worm_length >= 1);

  // Split every path into chunks of ≤ hop_spacing links.
  for (PathId id = 0; id < collection.size(); ++id) {
    const PathView path = collection.path(id);
    if (path.empty()) {
      // Zero-length path: one empty segment keeps the round logic uniform.
      segment_ids_[id].push_back(segments_.size());
      segments_.add(path);
      continue;
    }
    const auto links = path.links();
    for (std::uint32_t lo = 0; lo < path.length(); lo += config_.hop_spacing) {
      const std::uint32_t hi =
          std::min(lo + config_.hop_spacing, path.length());
      std::vector<EdgeId> chunk(links.begin() + lo, links.begin() + hi);
      segment_ids_[id].push_back(segments_.size());
      segments_.add(Path::from_links(collection.graph(), std::move(chunk)));
      max_segment_length_ = std::max(max_segment_length_, hi - lo);
    }
  }
}

MultiHopTrialAndFailure::MultiHopTrialAndFailure(
    std::shared_ptr<const Graph> graph,
    std::vector<std::vector<Path>> worm_segments, MultiHopConfig config,
    DeltaSchedule& schedule)
    : worm_count_(static_cast<std::uint32_t>(worm_segments.size())),
      config_(config),
      schedule_(schedule),
      segments_(std::move(graph)),
      segment_ids_(worm_segments.size()) {
  OPTO_ASSERT(config_.worm_length >= 1);
  for (PathId worm = 0; worm < worm_segments.size(); ++worm) {
    auto& chain = worm_segments[worm];
    OPTO_ASSERT_MSG(!chain.empty(), "every worm needs at least one segment");
    for (std::size_t i = 0; i < chain.size(); ++i) {
      if (i > 0)
        OPTO_ASSERT_MSG(chain[i].source() == chain[i - 1].destination(),
                        "segments must chain source-to-destination");
      max_segment_length_ = std::max(max_segment_length_, chain[i].length());
      segment_ids_[worm].push_back(segments_.size());
      segments_.add(std::move(chain[i]));
    }
  }
}

MultiHopResult MultiHopTrialAndFailure::run(std::uint64_t seed) {
  MultiHopResult result;
  result.completion_round.assign(worm_count_, 0);
  for (const auto& ids : segment_ids_)
    result.max_segments = std::max(
        result.max_segments, static_cast<std::uint32_t>(ids.size()));

  SimConfig sim_config;
  sim_config.rule = config_.rule;
  sim_config.tie = config_.tie;
  sim_config.bandwidth = config_.bandwidth;
  Simulator sim(segments_, sim_config);

  // Per worm: which segment it attempts next (== done when all passed).
  std::vector<std::uint32_t> progress(worm_count_, 0);
  std::vector<PathId> active(worm_count_);
  std::iota(active.begin(), active.end(), 0u);

  for (std::uint32_t round = 1;
       round <= config_.max_rounds && !active.empty(); ++round) {
    Rng rng = Rng::stream(seed, round);
    const SimTime delta = schedule_.delta(round);

    MultiHopRound report;
    report.round = round;
    report.delta = delta;
    report.attempts = static_cast<std::uint32_t>(active.size());
    report.charged_time =
        delta +
        2 * static_cast<SimTime>(max_segment_length_ + config_.worm_length);

    const auto ranks =
        assign_priorities(config_.priorities, active, worm_count_, rng);

    std::vector<LaunchSpec> specs(active.size());
    for (std::size_t i = 0; i < active.size(); ++i) {
      const PathId worm = active[i];
      LaunchSpec& spec = specs[i];
      spec.path = segment_ids_[worm][progress[worm]];
      spec.start_time = static_cast<SimTime>(
          rng.next_below(static_cast<std::uint64_t>(delta)));
      spec.wavelength =
          static_cast<Wavelength>(rng.next_below(config_.bandwidth));
      spec.priority = ranks[i];
      spec.length = config_.worm_length;
    }

    const PassResult pass = sim.run(specs);

    std::vector<PathId> still_active;
    still_active.reserve(active.size());
    for (std::size_t i = 0; i < active.size(); ++i) {
      const PathId worm = active[i];
      if (pass.worms[i].delivered_intact()) {
        ++report.segment_deliveries;
        if (++progress[worm] == segment_ids_[worm].size()) {
          ++report.worms_finished;
          result.completion_round[worm] = round;
          continue;
        }
      }
      still_active.push_back(worm);
    }
    active = std::move(still_active);

    result.total_charged_time += report.charged_time;
    // For multi-hop, per-round "success" is a completed segment.
    schedule_.observe(report.attempts, report.segment_deliveries);
    result.rounds.push_back(report);
    result.rounds_used = round;
  }

  result.success = active.empty();
  return result;
}

}  // namespace opto
