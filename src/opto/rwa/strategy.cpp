#include "opto/rwa/strategy.hpp"

#include <algorithm>

#include "opto/rng/philox.hpp"
#include "opto/util/assert.hpp"

namespace opto::rwa {

namespace {

// Philox draw slots for the RWA layer. The protocol layer owns slots
// 0–3 (rng/philox.hpp); staying clear of them keeps the keying surface
// auditable even though the seeds already differ.
constexpr std::uint32_t kSlotRwaWavelength = 8;
constexpr std::uint32_t kSlotRwaWaypoint = 9;  ///< + attempt, < 32 attempts

constexpr std::uint32_t kValiantAttempts = 32;

}  // namespace

const char* to_string(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::FirstFit: return "first_fit";
    case StrategyKind::LeastUsed: return "least_used";
    case StrategyKind::RandomFit: return "random_fit";
    case StrategyKind::Multipath: return "multipath";
    case StrategyKind::Valiant: return "valiant";
  }
  return "unknown";
}

std::optional<StrategyKind> parse_strategy_kind(const std::string& name) {
  if (name == "first_fit") return StrategyKind::FirstFit;
  if (name == "least_used") return StrategyKind::LeastUsed;
  if (name == "random_fit") return StrategyKind::RandomFit;
  if (name == "multipath") return StrategyKind::Multipath;
  if (name == "valiant") return StrategyKind::Valiant;
  return std::nullopt;
}

std::vector<StrategyKind> all_strategy_kinds() {
  return {StrategyKind::FirstFit, StrategyKind::LeastUsed,
          StrategyKind::RandomFit, StrategyKind::Multipath,
          StrategyKind::Valiant};
}

void Strategy::begin(const HopTable& routes, const RwaConfig& config,
                     std::uint32_t round) {
  OPTO_ASSERT(config.bandwidth >= 1 && config.candidates >= 1 &&
              config.split_ways >= 1);
  // The memo is only trustworthy while the bound table provably hasn't
  // changed. Pointer identity alone is not enough across runs: a freed
  // table's address can be reused by a different topology's (the
  // strategy does not own the table), so every new run (round 1) starts
  // cold and the memo stays warm only across the rounds of one schedule
  // run.
  if (round <= 1 || routes_ != &routes) {
    memo_.clear();
    memo_routes_.clear();
  }
  routes_ = &routes;
  const Graph& graph = routes.graph();
  graph_ = &graph;
  config_ = config;
  round_ = round;
  occupancy_.assign(static_cast<std::size_t>(graph.link_count()) *
                        config.bandwidth,
                    0);
  usage_.assign(config.bandwidth, 0);
}

Strategy::Candidates Strategy::candidates(const RwaRequest& request,
                                          std::uint32_t uid) {
  if (uid >= memo_.size()) memo_.resize(std::size_t{uid} + 1);
  Memo& memo = memo_[uid];
  if (memo.count == kUnsearched || memo.source != request.source ||
      memo.destination != request.destination) {
    memo.source = request.source;
    memo.destination = request.destination;
    memo.first = memo_routes_.size();
    memo.count = k_shortest_routes(*routes_, request.source,
                                   request.destination, config_.candidates,
                                   memo_routes_);
  }
  return {&memo_routes_, memo.source, memo.destination, memo.first,
          memo.count};
}

bool Strategy::channel_free(PathView route, Wavelength lambda) const {
  for (EdgeId link : route.links())
    if (occupancy_[static_cast<std::size_t>(link) * config_.bandwidth +
                   lambda])
      return false;
  return true;
}

void Strategy::claim(PathView route, Wavelength lambda) {
  for (EdgeId link : route.links()) {
    occupancy_[static_cast<std::size_t>(link) * config_.bandwidth + lambda] =
        1;
    ++usage_[lambda];
  }
}

std::optional<Wavelength> Strategy::first_fit(PathView route) const {
  for (Wavelength lambda = 0; lambda < config_.bandwidth; ++lambda)
    if (channel_free(route, lambda)) return lambda;
  return std::nullopt;
}

RwaDecision Strategy::accept(PathView route, Wavelength lambda) {
  RwaDecision decision;
  decision.accepted = true;
  decision.routes.push_back(route);
  decision.lambdas.push_back(lambda);
  claim(route, lambda);
  return decision;
}

namespace {

/// Shared candidate-major skeleton of the single-route strategies: the
/// first candidate route (canonical KSP order) with any free wavelength
/// wins, and the wavelength policy picks within that route's free set.
class SingleRouteStrategy : public Strategy {
 public:
  RwaDecision assign(const RwaRequest& request, std::uint32_t uid) override {
    const Candidates routes = candidates(request, uid);
    for (std::uint32_t i = 0; i < routes.size(); ++i) {
      const PathView route = routes[i];
      if (route.empty()) return accept(route, 0);  // source == destination
      if (const auto lambda = pick(route, uid)) return accept(route, *lambda);
    }
    return {};
  }

 protected:
  virtual std::optional<Wavelength> pick(PathView route,
                                         std::uint32_t uid) = 0;
};

class FirstFitStrategy final : public SingleRouteStrategy {
 public:
  StrategyKind kind() const override { return StrategyKind::FirstFit; }

 protected:
  std::optional<Wavelength> pick(PathView route, std::uint32_t) override {
    return first_fit(route);
  }
};

class LeastUsedStrategy final : public SingleRouteStrategy {
 public:
  StrategyKind kind() const override { return StrategyKind::LeastUsed; }

 protected:
  /// Spread over wavelengths already in service: among free wavelengths
  /// with non-zero usage pick the least-used (ties → lowest index); a
  /// fresh wavelength is opened only when no in-service one is free on
  /// the route, so Least-Used opens the band exactly as reluctantly as
  /// First-Fit does.
  std::optional<Wavelength> pick(PathView route, std::uint32_t) override {
    std::optional<Wavelength> best;
    for (Wavelength lambda = 0; lambda < config_.bandwidth; ++lambda) {
      if (usage_[lambda] == 0 || !channel_free(route, lambda)) continue;
      if (!best || usage_[lambda] < usage_[*best]) best = lambda;
    }
    if (best) return best;
    return first_fit(route);  // lowest unused index (or band full)
  }
};

class RandomFitStrategy final : public SingleRouteStrategy {
 public:
  StrategyKind kind() const override { return StrategyKind::RandomFit; }

 protected:
  /// Uniform keyed draw over the free set: the rank comes from
  /// Philox(seed, round) addressed by (uid, slot), so the value is
  /// independent of assignment order, thread count, and batch shape.
  std::optional<Wavelength> pick(PathView route,
                                 std::uint32_t uid) override {
    std::uint64_t free = 0;
    for (Wavelength lambda = 0; lambda < config_.bandwidth; ++lambda)
      if (channel_free(route, lambda)) ++free;
    if (free == 0) return std::nullopt;
    const CounterRng rng(config_.seed, round_);
    std::uint64_t rank = rng.below(free, uid, kSlotRwaWavelength);
    for (Wavelength lambda = 0;; ++lambda)
      if (channel_free(route, lambda) && rank-- == 0) return lambda;
  }
};

class MultipathStrategy final : public Strategy {
 public:
  StrategyKind kind() const override { return StrategyKind::Multipath; }

  /// Stripes the request over up to split_ways link-disjoint candidate
  /// routes (greedy scan in canonical order), each on its own first-fit
  /// wavelength; the request is served when at least one stripe lands
  /// (arXiv:1405.0822's multi-path RWA, worm-model rendition).
  RwaDecision assign(const RwaRequest& request, std::uint32_t uid) override {
    const Candidates routes = candidates(request, uid);
    if (routes.size() != 0 && routes[0].empty()) return accept(routes[0], 0);

    RwaDecision decision;
    for (std::uint32_t i = 0; i < routes.size(); ++i) {
      if (decision.routes.size() >= config_.split_ways) break;
      const PathView route = routes[i];
      if (!disjoint_from_stripes(route, decision.routes)) continue;
      const auto lambda = first_fit(route);
      if (!lambda) continue;
      claim(route, *lambda);
      decision.routes.push_back(route);
      decision.lambdas.push_back(*lambda);
    }
    decision.accepted = !decision.routes.empty();
    return decision;
  }

 private:
  /// True when `route` shares no link with any stripe already placed;
  /// there are at most split_ways of them, each a handful of links.
  static bool disjoint_from_stripes(PathView route,
                                    const std::vector<PathView>& stripes) {
    for (const PathView stripe : stripes)
      for (EdgeId link : route.links())
        if (std::ranges::find(stripe.links(), link) != stripe.links().end())
          return false;
    return true;
  }
};

class ValiantStrategy final : public Strategy {
 public:
  StrategyKind kind() const override { return StrategyKind::Valiant; }

  /// Valiant load balancing: route via a keyed random waypoint — two
  /// shortest legs — then first-fit the wavelength. Paths must stay
  /// simple, so waypoints whose legs intersect are redrawn (successive
  /// slots, bounded attempts); the direct shortest route is the
  /// fallback. Waypoint choice never depends on occupancy: the route is
  /// oblivious, only the wavelength reacts to load.
  RwaDecision assign(const RwaRequest& request, std::uint32_t uid) override {
    const NodeId source = request.source, destination = request.destination;
    // links_[0, direct) is the direct route; each attempt writes its two
    // legs after it. The route taken is links_[start, end).
    links_.clear();
    if (!shortest_route(*routes_, source, destination, links_)) return {};
    const std::size_t direct = links_.size();
    if (direct == 0) return accept(PathView(source, destination, {}), 0);

    std::size_t start = 0, end = direct;
    const CounterRng rng(config_.seed, round_);
    for (std::uint32_t attempt = 0; attempt < kValiantAttempts; ++attempt) {
      const NodeId mid = static_cast<NodeId>(rng.below(
          graph_->node_count(), uid, kSlotRwaWaypoint + attempt));
      if (mid == source || mid == destination) continue;
      links_.resize(direct);
      if (!shortest_route(*routes_, source, mid, links_)) continue;
      const std::size_t waypoint = links_.size();
      if (!shortest_route(*routes_, mid, destination, links_)) continue;
      const std::span<const EdgeId> legs(links_);
      if (!disjoint_legs(legs.subspan(direct, waypoint - direct),
                         legs.subspan(waypoint)))
        continue;
      start = direct;
      end = links_.size();
      break;
    }
    const PathView route(
        source, destination,
        std::span<const EdgeId>(links_).subspan(start, end - start));

    const auto lambda = first_fit(route);
    if (!lambda) return {};
    return accept(route, *lambda);
  }

 private:
  /// The two legs may share only the waypoint (leg1's last node).
  bool disjoint_legs(std::span<const EdgeId> leg1,
                     std::span<const EdgeId> leg2) const {
    for (EdgeId a : leg1)
      for (EdgeId b : leg2)
        if (graph_->source(a) == graph_->target(b)) return false;
    return true;
  }

  std::vector<EdgeId> links_;  ///< the direct route, then an attempt's legs
};

}  // namespace

std::unique_ptr<Strategy> make_strategy(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::FirstFit: return std::make_unique<FirstFitStrategy>();
    case StrategyKind::LeastUsed:
      return std::make_unique<LeastUsedStrategy>();
    case StrategyKind::RandomFit:
      return std::make_unique<RandomFitStrategy>();
    case StrategyKind::Multipath:
      return std::make_unique<MultipathStrategy>();
    case StrategyKind::Valiant: return std::make_unique<ValiantStrategy>();
  }
  OPTO_ASSERT(false);
  return nullptr;
}

}  // namespace opto::rwa
