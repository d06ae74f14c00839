#include "opto/testlib/shrink.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <numeric>
#include <set>
#include <utility>
#include <vector>

#include "opto/util/assert.hpp"

namespace opto::testlib {
namespace {

std::uint64_t normalized_edge(NodeId u, NodeId v) {
  const NodeId lo = std::min(u, v);
  const NodeId hi = std::max(u, v);
  return (static_cast<std::uint64_t>(lo) << 32) | hi;
}

class Shrinker {
 public:
  Shrinker(FuzzCase start, const CasePredicate& predicate,
           const ShrinkOptions& options, ShrinkStats* stats)
      : current_(std::move(start)),
        predicate_(predicate),
        options_(options),
        stats_(stats) {}

  FuzzCase run() {
    bool progress = true;
    std::uint32_t rounds = 0;
    while (progress && rounds < options_.max_rounds && !exhausted()) {
      progress = false;
      progress |= drop_spec_chunks();
      progress |= drop_pinned();
      progress |= drop_unused_paths();
      progress |= truncate_paths();
      progress |= shorten_worms();
      progress |= flatten_starts();
      progress |= reduce_bandwidth();
      progress |= simplify_config();
      progress |= compact_graph();
      progress |= normalize_priorities();
      ++rounds;
    }
    if (stats_ != nullptr) stats_->rounds = rounds;
    return std::move(current_);
  }

 private:
  bool exhausted() const { return checks_ >= options_.max_checks; }

  /// Accepts `candidate` as the new current case iff it is well-formed
  /// and still interesting. One predicate evaluation per call.
  bool attempt(FuzzCase candidate) {
    if (exhausted()) return false;
    if (!well_formed(candidate)) return false;
    ++checks_;
    if (stats_ != nullptr) stats_->checks = checks_;
    if (!predicate_(candidate)) return false;
    current_ = std::move(candidate);
    if (stats_ != nullptr) ++stats_->improvements;
    return true;
  }

  /// ddmin-style worm removal: contiguous chunks, halving the chunk
  /// size; by far the biggest lever, so it runs first each round.
  bool drop_spec_chunks() {
    bool progress = false;
    for (std::size_t chunk = std::max<std::size_t>(current_.specs.size() / 2, 1);
         chunk >= 1; chunk /= 2) {
      for (std::size_t start = 0;
           !exhausted() && start < current_.specs.size();) {
        if (chunk > current_.specs.size()) break;
        FuzzCase candidate = current_;
        const auto first =
            candidate.specs.begin() + static_cast<std::ptrdiff_t>(start);
        const auto last =
            first + static_cast<std::ptrdiff_t>(
                        std::min(chunk, candidate.specs.size() - start));
        candidate.specs.erase(first, last);
        if (attempt(std::move(candidate)))
          progress = true;  // stay at `start`: the next chunk slid here
        else
          start += chunk;
      }
      if (chunk == 1) break;
    }
    return progress;
  }

  /// Drops pinned slots: all at once first, then one at a time.
  bool drop_pinned() {
    bool progress = false;
    if (current_.pinned.size() > 1) {
      FuzzCase candidate = current_;
      candidate.pinned.clear();
      progress |= attempt(std::move(candidate));
    }
    for (std::size_t i = 0; !exhausted() && i < current_.pinned.size();) {
      FuzzCase candidate = current_;
      candidate.pinned.erase(candidate.pinned.begin() +
                             static_cast<std::ptrdiff_t>(i));
      if (attempt(std::move(candidate)))
        progress = true;  // stay at `i`: the next slot slid here
      else
        ++i;
    }
    return progress;
  }

  bool drop_unused_paths() {
    std::vector<char> used(current_.paths.size(), 0);
    for (const LaunchSpec& spec : current_.specs) used[spec.path] = 1;
    if (std::all_of(used.begin(), used.end(), [](char u) { return u != 0; }))
      return false;  // nothing unused (also covers zero paths)
    FuzzCase candidate = current_;
    std::vector<PathId> remap(current_.paths.size(), kInvalidPath);
    candidate.paths.clear();
    for (PathId p = 0; p < current_.paths.size(); ++p) {
      if (used[p] == 0) continue;
      remap[p] = static_cast<PathId>(candidate.paths.size());
      candidate.paths.push_back(current_.paths[p]);
    }
    for (LaunchSpec& spec : candidate.specs) spec.path = remap[spec.path];
    return attempt(std::move(candidate));
  }

  bool truncate_paths() {
    bool progress = false;
    for (std::size_t p = 0; !exhausted() && p < current_.paths.size(); ++p) {
      if (current_.paths[p].size() <= 1) continue;
      {  // halve the tail
        FuzzCase candidate = current_;
        candidate.paths[p].resize((candidate.paths[p].size() + 1) / 2);
        if (attempt(std::move(candidate))) progress = true;
      }
      if (current_.paths[p].size() > 1) {  // drop the last link
        FuzzCase candidate = current_;
        candidate.paths[p].pop_back();
        if (attempt(std::move(candidate))) progress = true;
      }
    }
    return progress;
  }

  bool shorten_worms() {
    bool progress = false;
    for (std::size_t i = 0; !exhausted() && i < current_.specs.size(); ++i) {
      if (current_.specs[i].length <= 1) continue;
      {
        FuzzCase candidate = current_;
        candidate.specs[i].length = 1;
        if (attempt(std::move(candidate))) {
          progress = true;
          continue;
        }
      }
      if (current_.specs[i].length > 2) {
        FuzzCase candidate = current_;
        candidate.specs[i].length /= 2;
        if (attempt(std::move(candidate))) progress = true;
      }
    }
    return progress;
  }

  bool flatten_starts() {
    bool progress = false;
    if (std::any_of(current_.specs.begin(), current_.specs.end(),
                    [](const LaunchSpec& s) { return s.start_time > 0; })) {
      FuzzCase candidate = current_;
      for (LaunchSpec& spec : candidate.specs) spec.start_time = 0;
      if (attempt(std::move(candidate))) return true;
      // Shift the whole schedule so the earliest worm starts at 0.
      const SimTime base =
          std::accumulate(current_.specs.begin(), current_.specs.end(),
                          std::numeric_limits<SimTime>::max(),
                          [](SimTime acc, const LaunchSpec& s) {
                            return std::min(acc, s.start_time);
                          });
      if (base > 0) {
        candidate = current_;
        for (LaunchSpec& spec : candidate.specs) spec.start_time -= base;
        if (attempt(std::move(candidate))) progress = true;
      }
    }
    for (std::size_t i = 0; !exhausted() && i < current_.specs.size(); ++i) {
      if (current_.specs[i].start_time == 0) continue;
      FuzzCase candidate = current_;
      candidate.specs[i].start_time = 0;
      if (attempt(std::move(candidate))) {
        progress = true;
        continue;
      }
      candidate = current_;
      candidate.specs[i].start_time /= 2;
      if (attempt(std::move(candidate))) progress = true;
    }
    return progress;
  }

  bool reduce_bandwidth() {
    bool progress = false;
    Wavelength max_used = 0;
    for (const LaunchSpec& spec : current_.specs)
      max_used = std::max(max_used, spec.wavelength);
    if (current_.bandwidth > max_used + 1) {
      FuzzCase candidate = current_;
      candidate.bandwidth = static_cast<std::uint16_t>(max_used + 1);
      if (attempt(std::move(candidate))) progress = true;
    }
    for (std::size_t i = 0; !exhausted() && i < current_.specs.size(); ++i) {
      if (current_.specs[i].wavelength == 0) continue;
      FuzzCase candidate = current_;
      candidate.specs[i].wavelength = 0;
      if (attempt(std::move(candidate))) progress = true;
    }
    return progress;
  }

  bool simplify_config() {
    bool progress = false;
    if (current_.conversion != ConversionMode::None) {
      FuzzCase candidate = current_;
      candidate.conversion = ConversionMode::None;
      candidate.converters.clear();
      if (attempt(std::move(candidate))) progress = true;
    }
    if (current_.has_faults) {
      FuzzCase candidate = current_;
      candidate.has_faults = false;
      candidate.faults = FaultConfig{};
      candidate.fault_seed = 0;
      candidate.fault_epoch = 0;
      if (attempt(std::move(candidate))) progress = true;
    }
    if (current_.tie != TiePolicy::KillAll) {
      FuzzCase candidate = current_;
      candidate.tie = TiePolicy::KillAll;
      if (attempt(std::move(candidate))) progress = true;
    }
    if (current_.rule != ContentionRule::ServeFirst) {
      FuzzCase candidate = current_;
      candidate.rule = ContentionRule::ServeFirst;
      if (attempt(std::move(candidate))) progress = true;
    }
    return progress;
  }

  /// Drops edges no path crosses, then renumbers nodes so only visited
  /// ones remain — the minimized topology is exactly the repro's
  /// footprint, padded to the two nodes a saved scenario needs.
  bool compact_graph() {
    std::set<std::uint64_t> used_edges;
    std::set<NodeId> used_nodes;
    for (const auto& nodes : current_.paths) {
      for (const NodeId node : nodes) used_nodes.insert(node);
      for (std::size_t i = 0; i + 1 < nodes.size(); ++i)
        used_edges.insert(normalized_edge(nodes[i], nodes[i + 1]));
    }
    const NodeId kept = std::max<NodeId>(
        2, static_cast<NodeId>(used_nodes.size()));
    if (used_edges.size() == current_.edges.size() &&
        kept == current_.node_count)
      return false;

    FuzzCase candidate = current_;
    std::map<NodeId, NodeId> remap;
    for (const NodeId node : used_nodes)
      remap.emplace(node, static_cast<NodeId>(remap.size()));
    candidate.node_count = kept;
    candidate.edges.clear();
    for (const auto& [u, v] : current_.edges)
      if (used_edges.count(normalized_edge(u, v)) != 0)
        candidate.edges.emplace_back(remap.at(u), remap.at(v));
    for (auto& nodes : candidate.paths)
      for (NodeId& node : nodes) node = remap.at(node);
    if (current_.conversion == ConversionMode::Sparse) {
      candidate.converters.assign(candidate.node_count, 0);
      for (const auto& [old_id, new_id] : remap)
        candidate.converters[new_id] = current_.converters[old_id];
    }
    return attempt(std::move(candidate));
  }

  bool normalize_priorities() {
    if (current_.specs.empty()) return false;
    std::vector<std::size_t> order(current_.specs.size());
    std::iota(order.begin(), order.end(), 0u);
    std::stable_sort(order.begin(), order.end(),
                     [this](std::size_t a, std::size_t b) {
                       return current_.specs[a].priority <
                              current_.specs[b].priority;
                     });
    FuzzCase candidate = current_;
    bool changed = false;
    for (std::size_t rank = 0; rank < order.size(); ++rank) {
      if (candidate.specs[order[rank]].priority !=
          static_cast<std::uint32_t>(rank))
        changed = true;
      candidate.specs[order[rank]].priority =
          static_cast<std::uint32_t>(rank);
    }
    if (!changed) return false;
    return attempt(std::move(candidate));
  }

  FuzzCase current_;
  const CasePredicate& predicate_;
  ShrinkOptions options_;
  ShrinkStats* stats_;
  std::uint32_t checks_ = 0;
};

}  // namespace

FuzzCase shrink_case(FuzzCase failing, const CasePredicate& still_interesting,
                     const ShrinkOptions& options, ShrinkStats* stats) {
  OPTO_ASSERT_MSG(still_interesting(failing),
                  "shrink_case needs a case the predicate accepts");
  std::string error;
  OPTO_ASSERT_MSG(well_formed(failing, &error), error.c_str());
  Shrinker shrinker(std::move(failing), still_interesting, options, stats);
  return shrinker.run();
}

}  // namespace opto::testlib
