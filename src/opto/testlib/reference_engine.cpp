#include "opto/testlib/reference_engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "opto/paths/bfs_shortest.hpp"
#include "opto/rng/philox.hpp"
#include "opto/sim/faults.hpp"
#include "opto/sim/reference.hpp"
#include "opto/util/assert.hpp"

namespace opto::testlib {
namespace {

constexpr double kNever = std::numeric_limits<double>::infinity();
constexpr std::size_t kNoSpec = ~std::size_t{0};

struct Connection {
  PathId path = kInvalidPath;
  bool measured = false;
  std::uint32_t rounds_total = 0;
  std::vector<PinnedSlot> held;
};

struct Member {
  PathId path = kInvalidPath;
  std::uint32_t connection = 0;
  std::uint32_t uid = 0;
  std::uint32_t attempts = 0;
  bool no_capacity = false;  ///< found no launchable λ this round
};

/// The smallest recorded value v with #(values ≤ v) ≥ q · count, or 0
/// for no values.
double quantile(std::vector<std::uint32_t> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double target = q * static_cast<double>(values.size());
  for (std::size_t i = 0; i < values.size(); ++i)
    if ((i + 1 == values.size() || values[i + 1] != values[i]) &&
        static_cast<double>(i + 1) >= target)
      return values[i];
  return values.back();
}

class ReferenceEngine {
 public:
  ReferenceEngine(std::shared_ptr<const Graph> graph,
                  const EngineConfig& config, std::uint64_t seed)
      : graph_(std::move(graph)),
        config_(config),
        seed_(seed),
        bandwidth_(config.protocol.bandwidth),
        traffic_pairs_(Rng::stream(seed, 0xE9612E01ull)),
        holding_(Rng::stream(seed, 0xE9612E02ull)),
        fit_(Rng::stream(seed, 0xE9612E03ull)),
        arrivals_(config.traffic, seed) {
    OPTO_ASSERT(config_.protocol.ack_mode == AckMode::Ideal);
    OPTO_ASSERT(config_.protocol.priorities ==
                PriorityStrategy::RandomPermutation);
    OPTO_ASSERT(!FaultPlan(config_.protocol.faults, seed).enabled());
    const NodeId nodes = graph_->node_count();
    std::vector<std::pair<NodeId, NodeId>> pairs;
    for (NodeId src = 0; src < nodes; ++src)
      for (NodeId dst = 0; dst < nodes; ++dst)
        if (src != dst) pairs.emplace_back(src, dst);
    routes_ = bfs_collection(graph_, pairs);
    busy_.assign(static_cast<std::size_t>(graph_->link_count()) * bandwidth_,
                 0);
    sim_.rule = config_.protocol.rule;
    sim_.tie = config_.protocol.tie;
    sim_.bandwidth = bandwidth_;
    sim_.conversion = config_.protocol.conversion;
    sim_.converters = config_.protocol.converters;
  }

  EngineResult run();

 private:
  PathId route(NodeId source, NodeId destination) const {
    // Row-major over ordered pairs, the diagonal skipped.
    const NodeId nodes = graph_->node_count();
    return source * (nodes - 1) + destination -
           (destination > source ? 1 : 0);
  }

  bool busy(EdgeId link, Wavelength wavelength) const {
    return busy_[static_cast<std::size_t>(link) * bandwidth_ + wavelength] !=
           0;
  }

  std::optional<Wavelength> choose(PathId path);
  void round();
  void establish(const Member& member, std::span<const Wavelength> history,
                 Wavelength launched);
  std::uint32_t acquire(PathId path, bool measured);
  void release(std::uint32_t id);

  std::shared_ptr<const Graph> graph_;
  EngineConfig config_;
  std::uint64_t seed_;
  std::uint16_t bandwidth_;
  Rng traffic_pairs_;
  Rng holding_;
  Rng fit_;
  ArrivalGenerator arrivals_;
  PathCollection routes_;
  SimConfig sim_;

  std::vector<std::uint8_t> busy_;  ///< link·B + λ, 1 while held
  std::vector<Connection> connections_;
  std::vector<std::uint32_t> free_ids_;
  std::set<std::pair<double, std::uint32_t>> departures_;
  std::vector<Member> members_;
  std::uint32_t next_uid_ = 0;
  std::uint32_t rounds_ = 0;
  double now_ = 0.0;

  EngineResult result_;
  std::vector<std::uint32_t> setup_rounds_;  ///< per measured admission
  double setup_rounds_total_ = 0.0;
};

std::optional<Wavelength> ReferenceEngine::choose(PathId path) {
  const PathView route = routes_.path(path);
  std::vector<Wavelength> free;
  if (config_.protocol.conversion == ConversionMode::None) {
    for (Wavelength w = 0; w < bandwidth_; ++w) {
      bool open = true;
      for (std::uint32_t i = 0; i < route.length(); ++i)
        open = open && !busy(route.link(i), w);
      if (open) free.push_back(w);
    }
  } else {
    for (std::uint32_t i = 0; i < route.length(); ++i) {
      bool any = false;
      for (Wavelength w = 0; w < bandwidth_; ++w)
        any = any || !busy(route.link(i), w);
      if (!any) return std::nullopt;
    }
    for (Wavelength w = 0; w < bandwidth_; ++w)
      if (!busy(route.link(0), w)) free.push_back(w);
  }
  if (free.empty()) return std::nullopt;
  if (config_.fit == WavelengthFit::FirstFit) return free.front();
  return free[fit_.next_below(free.size())];
}

std::uint32_t ReferenceEngine::acquire(PathId path, bool measured) {
  std::uint32_t id;
  if (!free_ids_.empty()) {
    id = free_ids_.back();
    free_ids_.pop_back();
  } else {
    id = static_cast<std::uint32_t>(connections_.size());
    connections_.emplace_back();
  }
  connections_[id] = Connection{path, measured, 0, {}};
  result_.peak_active = std::max<std::uint64_t>(
      result_.peak_active, connections_.size() - free_ids_.size());
  return id;
}

void ReferenceEngine::release(std::uint32_t id) {
  for (const PinnedSlot& slot : connections_[id].held) {
    OPTO_ASSERT(busy(slot.link, slot.wavelength));
    busy_[static_cast<std::size_t>(slot.link) * bandwidth_ +
          slot.wavelength] = 0;
  }
  connections_[id] = Connection{};
  free_ids_.push_back(id);
}

void ReferenceEngine::establish(const Member& member,
                                std::span<const Wavelength> history,
                                Wavelength launched) {
  Connection& connection = connections_[member.connection];
  connection.rounds_total += member.attempts;
  const PathView route = routes_.path(member.path);
  std::vector<PinnedSlot> slots;
  for (std::uint32_t i = 0; i < route.length(); ++i)
    slots.push_back(
        {route.link(i), history.empty() ? launched : history[i]});
  // A channel some earlier completion of this round already holds: the
  // setup re-enters the batch as a new member.
  for (const PinnedSlot& slot : slots)
    if (busy(slot.link, slot.wavelength)) {
      ++result_.conflict_readmits;
      members_.push_back(
          {member.path, member.connection, next_uid_++, 0, false});
      return;
    }
  for (const PinnedSlot& slot : slots)
    busy_[static_cast<std::size_t>(slot.link) * bandwidth_ +
          slot.wavelength] = 1;
  connection.held = std::move(slots);
  const double hold =
      -config_.mean_holding_time * std::log(1.0 - holding_.next_double());
  departures_.insert({now_ + hold, member.connection});
  if (connection.measured) {
    ++result_.admitted;
    setup_rounds_total_ += connection.rounds_total;
    // Quantiles read a histogram whose last bucket takes every count
    // past 4 · max_setup_rounds.
    setup_rounds_.push_back(std::min(connection.rounds_total,
                                     config_.max_setup_rounds * 4 + 1));
  }
}

void ReferenceEngine::round() {
  const std::uint32_t round = ++rounds_;
  const CounterRng rng(seed_, round);
  const SimTime delta = config_.round_delta;

  // Every member draws a delay and a rank; ranks are positions in the
  // (key, uid) order of the members' priority draws.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> keys;
  for (const Member& member : members_)
    keys.emplace_back(rng.at(member.uid, CounterRng::kSlotPriority),
                      member.uid);
  std::sort(keys.begin(), keys.end());
  const auto rank_of = [&](std::uint32_t uid) {
    std::uint32_t rank = 0;
    while (keys[rank].second != uid) ++rank;
    return rank;
  };
  std::vector<LaunchSpec> specs;
  std::vector<std::size_t> spec_of(members_.size(), kNoSpec);
  for (std::size_t i = 0; i < members_.size(); ++i) {
    Member& member = members_[i];
    const auto start = static_cast<SimTime>(
        rng.below(static_cast<std::uint64_t>(delta), member.uid,
                  CounterRng::kSlotStartDelay));
    const std::optional<Wavelength> wavelength = choose(member.path);
    ++member.attempts;
    if (!wavelength) {
      member.no_capacity = true;
      continue;
    }
    spec_of[i] = specs.size();
    specs.push_back({member.path, start, *wavelength, rank_of(member.uid),
                     config_.protocol.worm_length});
  }

  std::vector<PinnedSlot> pinned;
  for (EdgeId link = 0; link < graph_->link_count(); ++link)
    for (Wavelength w = 0; w < bandwidth_; ++w)
      if (busy(link, w)) pinned.push_back({link, w});
  const PassResult pass = reference_run(routes_, sim_, specs, pinned);

  // Ideal acks: every intact delivery is acknowledged and retires; the
  // retirees establish in member order, after the survivors.
  std::vector<Member> kept;
  std::vector<std::pair<Member, std::size_t>> done;
  for (std::size_t i = 0; i < members_.size(); ++i) {
    const std::size_t j = spec_of[i];
    if (j != kNoSpec && pass.worms[j].delivered_intact())
      done.emplace_back(members_[i], j);
    else
      kept.push_back(members_[i]);
  }
  members_ = std::move(kept);
  for (const auto& [member, j] : done) {
    std::span<const Wavelength> history;
    if (!pass.wavelength_offsets.empty())
      history = std::span<const Wavelength>(pass.wavelengths)
                    .subspan(pass.wavelength_offsets[j],
                             pass.wavelength_offsets[j + 1] -
                                 pass.wavelength_offsets[j]);
    establish(member, history, specs[j].wavelength);
  }

  // Loss-call-cleared: no launchable wavelength at this decision leaves
  // blocked; then the retry cap.
  std::vector<Member> still;
  for (const Member& member : members_) {
    if (!member.no_capacity) {
      still.push_back(member);
      continue;
    }
    if (connections_[member.connection].measured) ++result_.blocked;
    connections_[member.connection] = Connection{};
    free_ids_.push_back(member.connection);
  }
  members_.clear();
  for (const Member& member : still) {
    if (member.attempts < config_.max_setup_rounds) {
      members_.push_back(member);
      continue;
    }
    if (connections_[member.connection].measured) {
      ++result_.blocked;
      ++result_.expired;
    }
    connections_[member.connection] = Connection{};
    free_ids_.push_back(member.connection);
  }
}

EngineResult ReferenceEngine::run() {
  const NodeId nodes = graph_->node_count();
  const double interval = config_.round_interval;
  std::uint64_t generated = 0;
  double next_arrival = arrivals_.next_gap();
  double next_round = kNever;
  while (generated < config_.arrivals || !members_.empty()) {
    const double t_departure =
        departures_.empty() ? kNever : departures_.begin()->first;
    const double t_round = members_.empty() ? kNever : next_round;
    const double t_arrival =
        generated < config_.arrivals ? next_arrival : kNever;
    if (t_departure <= t_round && t_departure <= t_arrival) {
      now_ = t_departure;
      const std::uint32_t id = departures_.begin()->second;
      departures_.erase(departures_.begin());
      release(id);
    } else if (t_round <= t_arrival) {
      now_ = t_round;
      round();
      next_round = members_.empty() ? kNever : t_round + interval;
    } else {
      now_ = t_arrival;
      const auto source =
          static_cast<NodeId>(traffic_pairs_.next_below(nodes));
      auto destination =
          static_cast<NodeId>(traffic_pairs_.next_below(nodes - 1));
      if (destination >= source) ++destination;
      const PathId path = route(source, destination);
      const bool measured = generated >= config_.warmup;
      if (measured) ++result_.offered;
      const std::uint32_t id = acquire(path, measured);
      if (members_.empty())
        next_round = (std::floor(now_ / interval) + 1.0) * interval;
      members_.push_back({path, id, next_uid_++, 0, false});
      ++generated;
      next_arrival = now_ + arrivals_.next_gap();
    }
  }

  result_.rounds = rounds_;
  result_.sim_duration = now_;
  result_.blocking_probability =
      result_.offered > 0 ? static_cast<double>(result_.blocked) /
                                static_cast<double>(result_.offered)
                          : 0.0;
  result_.mean_setup_rounds =
      result_.admitted > 0
          ? setup_rounds_total_ / static_cast<double>(result_.admitted)
          : 0.0;
  result_.p50_setup_rounds = quantile(setup_rounds_, 0.50);
  result_.p99_setup_rounds = quantile(setup_rounds_, 0.99);
  return result_;
}

}  // namespace

EngineResult reference_engine(std::shared_ptr<const Graph> graph,
                              const EngineConfig& config, std::uint64_t seed) {
  return ReferenceEngine(std::move(graph), config, seed).run();
}

}  // namespace opto::testlib
