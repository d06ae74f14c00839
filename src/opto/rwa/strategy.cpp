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
  // The cache is only trustworthy while the bound table provably hasn't
  // changed. Pointer identity alone is not enough across runs: a freed
  // table's address can be reused by a different topology's (the
  // strategy does not own the table), so every new run (round 1) starts
  // cold and the cache stays warm only across the rounds of one schedule
  // run.
  if (round <= 1 || routes_ != &routes) route_cache_.clear();
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

const std::vector<std::vector<NodeId>>& Strategy::candidates(
    NodeId source, NodeId destination) {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(source) << 32) | destination;
  auto it = route_cache_.find(key);
  if (it == route_cache_.end())
    it = route_cache_
             .emplace(key, k_shortest_routes(*routes_, source, destination,
                                             config_.candidates))
             .first;
  return it->second;
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

RwaDecision Strategy::accept(const Graph& graph,
                             const std::vector<NodeId>& route,
                             Wavelength lambda) {
  RwaDecision decision;
  decision.accepted = true;
  decision.routes.push_back(Path::from_nodes(graph, route));
  decision.lambdas.push_back(lambda);
  claim(decision.routes.back(), lambda);
  return decision;
}

namespace {

/// Shared candidate-major skeleton of the single-route strategies: the
/// first candidate route (canonical KSP order) with any free wavelength
/// wins, and the wavelength policy picks within that route's free set.
class SingleRouteStrategy : public Strategy {
 public:
  RwaDecision assign(const RwaRequest& request, std::uint32_t uid) override {
    for (const auto& route_nodes :
         candidates(request.source, request.destination)) {
      if (route_nodes.size() == 1)  // source == destination: free ride
        return accept(*graph_, route_nodes, 0);
      const Path route = Path::from_nodes(*graph_, route_nodes);
      const auto lambda = pick(route, uid);
      if (!lambda) continue;
      RwaDecision decision;
      decision.accepted = true;
      decision.routes.push_back(route);
      decision.lambdas.push_back(*lambda);
      claim(decision.routes.back(), *lambda);
      return decision;
    }
    return {};
  }

 protected:
  virtual std::optional<Wavelength> pick(const Path& route,
                                         std::uint32_t uid) = 0;
};

class FirstFitStrategy final : public SingleRouteStrategy {
 public:
  StrategyKind kind() const override { return StrategyKind::FirstFit; }

 protected:
  std::optional<Wavelength> pick(const Path& route, std::uint32_t) override {
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
  std::optional<Wavelength> pick(const Path& route, std::uint32_t) override {
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
  std::optional<Wavelength> pick(const Path& route,
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
  RwaDecision assign(const RwaRequest& request, std::uint32_t) override {
    const auto& routes = candidates(request.source, request.destination);
    if (!routes.empty() && routes.front().size() == 1)
      return accept(*graph_, routes.front(), 0);

    RwaDecision decision;
    for (const auto& route_nodes : routes) {
      if (decision.routes.size() >= config_.split_ways) break;
      const Path route = Path::from_nodes(*graph_, route_nodes);
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
  static bool disjoint_from_stripes(const Path& route,
                                    const std::vector<Path>& stripes) {
    for (const Path& stripe : stripes)
      for (EdgeId link : route.links())
        if (std::find(stripe.links().begin(), stripe.links().end(), link) !=
            stripe.links().end())
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
    std::vector<NodeId> direct =
        shortest_route(*routes_, request.source, request.destination);
    if (direct.empty()) return {};
    if (direct.size() == 1) return accept(*graph_, direct, 0);

    const CounterRng rng(config_.seed, round_);
    std::vector<NodeId> route_nodes;
    for (std::uint32_t attempt = 0; attempt < kValiantAttempts; ++attempt) {
      const NodeId mid = static_cast<NodeId>(rng.below(
          graph_->node_count(), uid, kSlotRwaWaypoint + attempt));
      if (mid == request.source || mid == request.destination) continue;
      std::vector<NodeId> leg1 =
          shortest_route(*routes_, request.source, mid);
      if (leg1.empty()) continue;
      const std::vector<NodeId> leg2 =
          shortest_route(*routes_, mid, request.destination);
      if (leg2.empty() || !disjoint_legs(leg1, leg2)) continue;
      leg1.insert(leg1.end(), leg2.begin() + 1, leg2.end());
      route_nodes = std::move(leg1);
      break;
    }
    if (route_nodes.empty()) route_nodes = std::move(direct);

    const Path route = Path::from_nodes(*graph_, route_nodes);
    const auto lambda = first_fit(route);
    if (!lambda) return {};
    RwaDecision decision;
    decision.accepted = true;
    decision.routes.push_back(route);
    decision.lambdas.push_back(*lambda);
    claim(decision.routes.back(), *lambda);
    return decision;
  }

 private:
  /// The two legs may share only the waypoint (leg1's last node).
  static bool disjoint_legs(const std::vector<NodeId>& leg1,
                            const std::vector<NodeId>& leg2) {
    for (std::size_t i = 0; i + 1 < leg1.size(); ++i)
      for (std::size_t j = 1; j < leg2.size(); ++j)
        if (leg1[i] == leg2[j]) return false;
    return true;
  }
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
