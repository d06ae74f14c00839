#include "opto/engine/engine.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <limits>

#include "opto/graph/graph_algo.hpp"
#include "opto/obs/obs.hpp"
#include "opto/paths/bfs_shortest.hpp"
#include "opto/util/assert.hpp"

namespace opto {

namespace {

constexpr double kNever = std::numeric_limits<double>::infinity();

double exponential(Rng& rng, double mean) {
  // Inverse CDF; 1 − U in (0, 1].
  return -mean * std::log(1.0 - rng.next_double());
}

std::uint64_t wall_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Log-bucketed wall-latency histogram: exact below 4 ns, then 4 buckets
// per octave (top two mantissa bits), ≤ ~19% representative error.
constexpr std::size_t kWallBuckets = 256;

std::size_t wall_bucket(std::uint64_t ns) {
  if (ns < 4) return static_cast<std::size_t>(ns);
  const int exponent = std::bit_width(ns) - 1;  // ≥ 2
  const std::uint64_t sub = (ns >> (exponent - 2)) & 3;
  return static_cast<std::size_t>(exponent) * 4 +
         static_cast<std::size_t>(sub) - 4;
}

double wall_bucket_value(std::size_t bucket) {
  if (bucket < 4) return static_cast<double>(bucket);
  const int exponent = static_cast<int>(bucket / 4) + 1;
  const std::uint64_t sub = bucket % 4;
  const double low =
      static_cast<double>((4 + sub) << 1) * std::ldexp(1.0, exponent - 3);
  const double width = std::ldexp(1.0, exponent - 2);
  return low + width / 2.0;
}

/// Smallest bucket at which the cumulative count reaches q of the total.
double histogram_quantile(const std::vector<std::uint64_t>& histogram,
                          double q, double (*value_of)(std::size_t)) {
  std::uint64_t total = 0;
  for (const std::uint64_t count : histogram) total += count;
  if (total == 0) return 0.0;
  const double target = q * static_cast<double>(total);
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < histogram.size(); ++b) {
    cumulative += histogram[b];
    if (static_cast<double>(cumulative) >= target && histogram[b] > 0)
      return value_of(b);
  }
  return value_of(histogram.size() - 1);
}

double rounds_bucket_value(std::size_t bucket) {
  return static_cast<double>(bucket);
}

}  // namespace

const char* to_string(WavelengthFit fit) {
  return fit == WavelengthFit::FirstFit ? "first-fit" : "random-fit";
}

struct Engine::Connection {
  PathId path = kInvalidPath;
  std::uint64_t wall_start = 0;      ///< ns at admission
  std::uint32_t rounds_total = 0;    ///< setup rounds incl. readmissions
  bool measured = false;
  std::vector<std::uint32_t> slots;  ///< held channels (link·B + λ)
};

namespace {

/// All ordered (src, dst) pairs in row-major order — the engine's route
/// table indexing (pair_path_).
std::vector<std::pair<NodeId, NodeId>> all_ordered_pairs(NodeId nodes) {
  std::vector<std::pair<NodeId, NodeId>> pairs;
  pairs.reserve(static_cast<std::size_t>(nodes) * (nodes - 1));
  for (NodeId src = 0; src < nodes; ++src)
    for (NodeId dst = 0; dst < nodes; ++dst)
      if (src != dst) pairs.emplace_back(src, dst);
  return pairs;
}

}  // namespace

bool route_table_fits(std::uint64_t nodes, std::uint64_t max_route_hops) {
  const std::uint64_t pairs = nodes * (nodes - 1);
  return max_route_hops == 0 || pairs <= kMaxRouteTableHops / max_route_hops;
}

Engine::Engine(std::shared_ptr<const Graph> graph, EngineConfig config,
               std::uint64_t seed)
    : graph_(std::move(graph)),
      config_(std::move(config)),
      seed_(seed),
      schedule_(config_.round_delta),
      traffic_pairs_(Rng::stream(seed, 0xE9612E01ull)),
      holding_(Rng::stream(seed, 0xE9612E02ull)),
      fit_(Rng::stream(seed, 0xE9612E03ull)),
      arrivals_(config_.traffic, seed) {
  OPTO_ASSERT(graph_ != nullptr && graph_->node_count() >= 2);
  OPTO_ASSERT(config_.mean_holding_time > 0.0);
  OPTO_ASSERT(config_.round_interval > 0.0);
  OPTO_ASSERT(config_.max_setup_rounds >= 1);
  OPTO_ASSERT(config_.arrivals > config_.warmup);
  OPTO_ASSERT_MSG(
      config_.protocol.priorities == PriorityStrategy::RandomPermutation,
      "engine batches admit one path many times; only RandomPermutation "
      "guarantees pairwise-distinct ranks");

  const NodeId nodes = graph_->node_count();
  // Node 0's eccentricity never exceeds the diameter, and the validator's
  // family bound never falls below it, so no validated scenario trips this.
  OPTO_ASSERT_MSG(route_table_fits(nodes, eccentricity(*graph_, 0)),
                  "engine route table exceeds kMaxRouteTableHops");
  const auto pairs = all_ordered_pairs(nodes);
  routes_ = bfs_collection(graph_, pairs);
  pair_path_.assign(static_cast<std::size_t>(nodes) * nodes, kInvalidPath);
  for (PathId id = 0; id < routes_.size(); ++id)
    pair_path_[static_cast<std::size_t>(pairs[id].first) * nodes +
               pairs[id].second] = id;

  channel_busy_.assign(static_cast<std::size_t>(graph_->link_count()) *
                           config_.protocol.bandwidth,
                       0);
  const std::size_t words = (config_.protocol.bandwidth + 63u) / 64u;
  held_words_.assign(static_cast<std::size_t>(graph_->link_count()) * words,
                     0);
  free_words_.assign(words, 0);
  const unsigned tail = config_.protocol.bandwidth % 64u;
  last_word_mask_ =
      tail == 0 ? ~std::uint64_t{0} : (std::uint64_t{1} << tail) - 1;
  session_.emplace(routes_, config_.protocol, schedule_, seed);
  session_->set_wavelength_chooser(
      [this](PathId path, std::uint64_t tag) {
        return choose_wavelength(path, tag);
      });
  session_->set_held(channel_busy_);
  rounds_histogram_.assign(
      static_cast<std::size_t>(config_.max_setup_rounds) * 4 + 2, 0);
  wall_histogram_.assign(kWallBuckets, 0);
}

Engine::~Engine() = default;

std::uint32_t Engine::acquire_connection(PathId path, bool measured) {
  std::uint32_t id;
  if (!free_ids_.empty()) {
    id = free_ids_.back();
    free_ids_.pop_back();
  } else {
    id = static_cast<std::uint32_t>(connections_.size());
    connections_.emplace_back();
  }
  Connection& connection = connections_[id];
  connection.path = path;
  connection.wall_start = wall_now_ns();
  connection.rounds_total = 0;
  connection.measured = measured;
  connection.slots.clear();
  result_.peak_active =
      std::max(result_.peak_active,
               static_cast<std::uint64_t>(connections_.size()) -
                   static_cast<std::uint64_t>(free_ids_.size()));
  return id;
}

void Engine::release_connection(std::uint32_t id) {
  release_channels(id);
  free_connection(id);
}

void Engine::free_connection(std::uint32_t id) {
  connections_[id].measured = false;  // a free id is no request
  free_ids_.push_back(id);
}

std::uint64_t Engine::measured_in_flight() const {
  // A live connection holds channels once established; one still in the
  // session holds none (every route has a link). Free ids read unmeasured.
  std::uint64_t pending = 0;
  for (const Connection& connection : connections_)
    pending += connection.measured && connection.slots.empty() ? 1 : 0;
  return pending;
}

std::optional<Wavelength> Engine::choose_wavelength(PathId path,
                                                    std::uint64_t tag) {
  const auto links = routes_.path(path).links();
  const std::size_t words = free_words_.size();
  const auto held = [&](EdgeId link, std::size_t word) {
    return held_words_[static_cast<std::size_t>(link) * words + word];
  };
  const auto valid = [&](std::size_t word) {
    return word + 1 < words ? ~std::uint64_t{0} : last_word_mask_;
  };

  if (config_.protocol.conversion != ConversionMode::None) {
    // Converting routers only need SOME free wavelength per link; the
    // pass retunes. Launch on a free wavelength of the first link.
    for (const EdgeId link : links) {
      bool any = false;
      for (std::size_t word = 0; word < words && !any; ++word)
        any = (~held(link, word) & valid(word)) != 0;
      if (!any) {
        no_capacity_.push_back(tag);
        return std::nullopt;
      }
    }
    for (std::size_t word = 0; word < words; ++word)
      free_words_[word] = ~held(links[0], word) & valid(word);
  } else {
    // Wavelength continuity: one wavelength free on EVERY link.
    for (std::size_t word = 0; word < words; ++word) {
      std::uint64_t busy = 0;
      for (const EdgeId link : links) busy |= held(link, word);
      free_words_[word] = ~busy & valid(word);
    }
  }
  std::uint64_t free_count = 0;
  for (const std::uint64_t bits : free_words_)
    free_count += static_cast<std::uint64_t>(std::popcount(bits));
  if (free_count == 0) {
    no_capacity_.push_back(tag);
    return std::nullopt;
  }
  // First-fit takes the lowest free λ; random-fit the pick-th lowest.
  std::uint64_t pick = config_.fit == WavelengthFit::FirstFit
                           ? 0
                           : fit_.next_below(free_count);
  for (std::size_t word = 0;; ++word) {
    std::uint64_t bits = free_words_[word];
    const auto here = static_cast<std::uint64_t>(std::popcount(bits));
    if (pick >= here) {
      pick -= here;
      continue;
    }
    for (; pick > 0; --pick) bits &= bits - 1;
    return static_cast<Wavelength>(word * 64 +
                                   static_cast<std::size_t>(
                                       std::countr_zero(bits)));
  }
}

void Engine::claim_channel(std::uint32_t id, EdgeId link,
                           Wavelength wavelength) {
  const auto channel = static_cast<std::uint32_t>(
      static_cast<std::size_t>(link) * config_.protocol.bandwidth +
      wavelength);
  std::uint64_t& word = held_word(link, wavelength);
  const std::uint64_t bit = std::uint64_t{1} << (wavelength % 64);
  OPTO_DASSERT(channel_busy_[channel] == 0 && (word & bit) == 0);
  channel_busy_[channel] = 1;
  word |= bit;
  connections_[id].slots.push_back(channel);
}

void Engine::release_channels(std::uint32_t id) {
  Connection& connection = connections_[id];
  const std::uint16_t bandwidth = config_.protocol.bandwidth;
  for (const std::uint32_t channel : connection.slots) {
    const auto link = static_cast<EdgeId>(channel / bandwidth);
    const auto wavelength = static_cast<Wavelength>(channel % bandwidth);
    std::uint64_t& word = held_word(link, wavelength);
    const std::uint64_t bit = std::uint64_t{1} << (wavelength % 64);
    OPTO_DASSERT(channel_busy_[channel] == 1 && (word & bit) != 0);
    channel_busy_[channel] = 0;
    word &= ~bit;
  }
  connection.slots.clear();
}

void Engine::finish(std::uint32_t id,
                    const ProtocolSession::Completion& done) {
  Connection& connection = connections_[id];
  connection.rounds_total += done.attempts;

  const auto links = routes_.path(connection.path).links();
  const auto history = session_->wavelength_history();
  const bool converted = done.history_end > done.history_begin;
  OPTO_DASSERT(!converted ||
               done.history_end - done.history_begin == links.size());
  const auto wavelength_on = [&](std::size_t k) {
    return converted ? history[done.history_begin + k] : done.wavelength;
  };

  // Worm claims are transient, so two same-round completions can have
  // crossed the same channel at different pass times — a hold would
  // double-book. Confirm against committed holds (including this
  // round's earlier completions) and re-admit on conflict.
  for (std::size_t k = 0; k < links.size(); ++k) {
    if (channel_busy_[static_cast<std::size_t>(links[k]) *
                          config_.protocol.bandwidth +
                      wavelength_on(k)] == 0)
      continue;
    ++result_.conflict_readmits;
    session_->admit(connection.path, id);
    return;
  }
  for (std::size_t k = 0; k < links.size(); ++k)
    claim_channel(id, links[k], wavelength_on(k));

  const double hold = exponential(holding_, config_.mean_holding_time);
  departures_.push_back({now_ + hold, id});
  std::push_heap(departures_.begin(), departures_.end(),
                 std::greater<>{});

  if (connection.measured) {
    ++result_.admitted;
    setup_rounds_total_ += static_cast<double>(connection.rounds_total);
    const std::size_t bucket =
        std::min<std::size_t>(connection.rounds_total,
                              rounds_histogram_.size() - 1);
    ++rounds_histogram_[bucket];
    ++wall_histogram_[wall_bucket(wall_now_ns() - connection.wall_start)];
  }
}

void Engine::run_round() {
  no_capacity_.clear();
  const RoundReport& report = session_->step();
  ++rounds_run_;
  (void)report;

  for (const ProtocolSession::Completion& done : session_->completed())
    finish(static_cast<std::uint32_t>(done.tag), done);

  // Loss-call-cleared: requests that saw zero launchable wavelengths at
  // this decision round leave blocked.
  if (!no_capacity_.empty()) {
    std::sort(no_capacity_.begin(), no_capacity_.end());
    for (const ProtocolSession::Completion& gone : session_->remove_if(
             [this](std::uint64_t tag, std::uint32_t) {
               return std::binary_search(no_capacity_.begin(),
                                         no_capacity_.end(), tag);
             })) {
      const auto id = static_cast<std::uint32_t>(gone.tag);
      if (connections_[id].measured) ++result_.blocked;
      free_connection(id);
    }
  }

  // Livelock safety net: contention-racing setups that somehow never won
  // a round are dropped after max_setup_rounds attempts.
  for (const ProtocolSession::Completion& gone :
       session_->expire(config_.max_setup_rounds)) {
    const auto id = static_cast<std::uint32_t>(gone.tag);
    if (connections_[id].measured) {
      ++result_.blocked;
      ++result_.expired;
    }
    free_connection(id);
  }
}

EngineResult Engine::run() {
  OPTO_ASSERT_MSG(!ran_, "Engine::run is one-shot");
  ran_ = true;
  const obs::ScopedTimer obs_timer("engine.run");
  const std::uint64_t wall_start = wall_now_ns();

  const NodeId nodes = graph_->node_count();
  const double interval = config_.round_interval;
  std::uint64_t generated = 0;
  double next_arrival = arrivals_.next_gap();
  double next_round = kNever;  ///< armed while setups are pending

  while (generated < config_.arrivals || session_->active_count() > 0) {
    const double t_departure =
        departures_.empty() ? kNever : departures_.front().time;
    const double t_round =
        session_->active_count() > 0 ? next_round : kNever;
    const double t_arrival =
        generated < config_.arrivals ? next_arrival : kNever;

    // Tie order: departures ≤ round < arrivals.
    if (t_departure <= t_round && t_departure <= t_arrival) {
      now_ = t_departure;
      const std::uint32_t id = departures_.front().connection;
      std::pop_heap(departures_.begin(), departures_.end(),
                    std::greater<>{});
      departures_.pop_back();
      release_connection(id);
    } else if (t_round <= t_arrival) {
      now_ = t_round;
      run_round();
      next_round = session_->active_count() > 0 ? t_round + interval : kNever;
    } else {
      now_ = t_arrival;
      const auto source =
          static_cast<NodeId>(traffic_pairs_.next_below(nodes));
      auto destination =
          static_cast<NodeId>(traffic_pairs_.next_below(nodes - 1));
      if (destination >= source) ++destination;
      const PathId path =
          pair_path_[static_cast<std::size_t>(source) * nodes + destination];
      const bool measured = generated >= config_.warmup;
      if (measured) ++result_.offered;
      const std::uint32_t id = acquire_connection(path, measured);
      if (session_->active_count() == 0)
        next_round =
            (std::floor(now_ / interval) + 1.0) * interval;
      session_->admit(path, id);
      ++generated;
      next_arrival = now_ + arrivals_.next_gap();
    }
    // Every measured request is admitted, blocked, or still setting up.
    OPTO_DASSERT(result_.offered ==
                 result_.admitted + result_.blocked + measured_in_flight());
  }

  // Every measured request left the session admitted or blocked.
  OPTO_DASSERT(result_.offered == result_.admitted + result_.blocked);
  result_.rounds = rounds_run_;
  result_.duplicate_deliveries = session_->duplicate_deliveries();
  result_.sim_duration = now_;
  result_.blocking_probability =
      result_.offered > 0
          ? static_cast<double>(result_.blocked) /
                static_cast<double>(result_.offered)
          : 0.0;
  result_.mean_setup_rounds =
      result_.admitted > 0
          ? setup_rounds_total_ / static_cast<double>(result_.admitted)
          : 0.0;
  result_.p50_setup_rounds =
      histogram_quantile(rounds_histogram_, 0.50, &rounds_bucket_value);
  result_.p99_setup_rounds =
      histogram_quantile(rounds_histogram_, 0.99, &rounds_bucket_value);
  result_.p50_setup_wall_ns =
      histogram_quantile(wall_histogram_, 0.50, &wall_bucket_value);
  result_.p99_setup_wall_ns =
      histogram_quantile(wall_histogram_, 0.99, &wall_bucket_value);
  const double wall_s =
      static_cast<double>(wall_now_ns() - wall_start) * 1e-9;
  result_.requests_per_s =
      wall_s > 0.0 ? static_cast<double>(config_.arrivals) / wall_s : 0.0;

  if (config_.record) record_result();
  return result_;
}

void Engine::record_result() const {
  if (!obs::enabled()) return;
  // Deterministic gauges: plain names, byte-stable across runs/threads.
  obs::set_metric("engine_offered", static_cast<double>(result_.offered));
  obs::set_metric("engine_admitted", static_cast<double>(result_.admitted));
  obs::set_metric("engine_blocked", static_cast<double>(result_.blocked));
  obs::set_metric("engine_blocking_probability",
                  result_.blocking_probability);
  obs::set_metric("engine_conflict_readmits",
                  static_cast<double>(result_.conflict_readmits));
  obs::set_metric("engine_rounds", static_cast<double>(result_.rounds));
  obs::set_metric("engine_peak_active",
                  static_cast<double>(result_.peak_active));
  obs::set_metric("engine_mean_setup_rounds", result_.mean_setup_rounds);
  obs::set_metric("engine_p50_setup_rounds", result_.p50_setup_rounds);
  obs::set_metric("engine_p99_setup_rounds", result_.p99_setup_rounds);
  obs::set_metric("engine_sim_duration", result_.sim_duration);
  // Wall-clock gauges: names follow the compare.cpp normalization rules
  // (`_per_s` suffix / `wall_ns` substring) so --normalize strips them.
  obs::set_metric("engine_requests_per_s", result_.requests_per_s);
  obs::set_metric("engine_setup_p50_wall_ns", result_.p50_setup_wall_ns);
  obs::set_metric("engine_setup_p99_wall_ns", result_.p99_setup_wall_ns);
}

}  // namespace opto
