// Streaming traffic engine — open connection arrivals served by rolling
// Trial-and-Failure batches.
//
// The closed experiments hand the protocol a fixed path collection and
// run it to empty. Here the workload is open: requests arrive over
// traffic time (engine/traffic.hpp), join the *current* protocol batch,
// and a ProtocolSession round runs every `round_interval` of traffic
// time. An acknowledged setup converts into a held circuit — its
// (link, wavelength) channels are marked in a held-channel mask that
// later passes read as busy — for an exponential holding time, then
// tears down.
//
// Admission is loss-call-cleared (the Erlang/teletraffic convention): a
// request whose route has no launchable wavelength at its first decision
// round is blocked and leaves. A request that *was* launched but lost
// its worm to contention retries in the next round — capacity existed,
// it only lost a race. `max_setup_rounds` bounds retries as a livelock
// safety net.
//
// Two clocks: traffic time (double; arrivals, holding, teardown) and the
// simulator's integer step time inside each pass. One round is a single
// pass; events at equal traffic time apply as departures ≤ round <
// arrivals, so freed channels are visible to the round that starts at
// the same instant, and a request arriving exactly at a round boundary
// waits for the next round.
//
// Determinism: the trajectory is a pure function of (graph, config,
// seed) — traffic, protocol, and holding-time draws live on distinct
// Rng streams, and nothing depends on wall clock or thread count. Wall
// time appears only in the `*_wall_ns` / `*_per_s` metrics, which
// bench_compare --normalize strips.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "opto/core/trial_and_failure.hpp"
#include "opto/engine/traffic.hpp"
#include "opto/graph/graph.hpp"

namespace opto {

/// Wavelength selection for a setup attempt, over the channels not held
/// by established circuits. FirstFit is the classic dynamic-RWA policy;
/// RandomFit spreads concurrent setups to cut same-round collisions.
enum class WavelengthFit : std::uint8_t { FirstFit, RandomFit };

const char* to_string(WavelengthFit fit);

/// Cap on the hops of the engine's route table, which holds one BFS route
/// per ordered node pair. Peak RSS measures ~16 B a hop plus ~68 B a
/// route (ring-200: 2.0M hops, 37 MiB; K_1024: 1.05M one-hop routes,
/// 88 MiB), so with the channel budget no validated engine scenario's
/// table passes ~100 MiB.
inline constexpr std::uint64_t kMaxRouteTableHops = std::uint64_t{1} << 22;

/// The closed-form route-table check: nodes·(nodes − 1) ordered pairs,
/// each routed over at most `max_route_hops` links, fit
/// kMaxRouteTableHops. The scenario validator applies it with each
/// family's diameter (nodes − 1 for an explicit topology); the Engine
/// constructor asserts it.
bool route_table_fits(std::uint64_t nodes, std::uint64_t max_route_hops);

struct EngineConfig {
  /// Protocol knobs for the setup passes (bandwidth, contention rule,
  /// conversion…). Multi-connection batches need a strategy with
  /// pairwise-distinct ranks — keep the default RandomPermutation.
  ProtocolConfig protocol;
  TrafficConfig traffic;
  double mean_holding_time = 1.0;   ///< exponential circuit lifetime
  double round_interval = 0.05;     ///< traffic time between rounds
  /// Startup-delay range Δ within each setup pass (simulator steps).
  SimTime round_delta = 8;
  std::uint32_t max_setup_rounds = 32;  ///< retry cap (livelock net)
  std::uint64_t arrivals = 100000;  ///< requests to generate
  std::uint64_t warmup = 10000;     ///< arrivals excluded from metrics
  WavelengthFit fit = WavelengthFit::FirstFit;
  /// Publish the result as obs gauges (obs::set_metric) for the
  /// BenchRecord; deterministic names plain, wall-clock names stripped
  /// by --normalize.
  bool record = false;
};

struct EngineResult {
  std::uint64_t offered = 0;    ///< measured (post-warmup) arrivals
  std::uint64_t admitted = 0;   ///< measured circuits established
  std::uint64_t blocked = 0;    ///< measured losses (no capacity/expired)
  std::uint64_t expired = 0;    ///< of blocked: hit max_setup_rounds
  /// Setups re-entered because a completed worm's channels were claimed
  /// by an earlier completion of the same round (transient worm claims
  /// can double-book a hold; the engine confirms before pinning).
  std::uint64_t conflict_readmits = 0;
  std::uint64_t duplicate_deliveries = 0;
  std::uint64_t rounds = 0;         ///< protocol rounds executed
  std::uint64_t peak_active = 0;    ///< connection-table high-water mark
  double blocking_probability = 0.0;
  double mean_setup_rounds = 0.0;   ///< over measured admissions
  double p50_setup_rounds = 0.0;
  double p99_setup_rounds = 0.0;
  double p50_setup_wall_ns = 0.0;   ///< arrival→established, wall clock
  double p99_setup_wall_ns = 0.0;
  double requests_per_s = 0.0;      ///< arrivals over run wall time
  double sim_duration = 0.0;        ///< traffic time simulated
};

class Engine {
 public:
  /// Builds the canonical BFS route table (one path per ordered pair) on
  /// `graph`, which must be connected with ≥ 2 nodes and pass
  /// route_table_fits.
  Engine(std::shared_ptr<const Graph> graph, EngineConfig config,
         std::uint64_t seed);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Runs the event loop over `config.arrivals` requests plus the drain
  /// of in-flight setups. One call per engine instance.
  EngineResult run();

  const PathCollection& routes() const { return routes_; }

 private:
  struct Connection;

  std::uint32_t acquire_connection(PathId path, bool measured);
  void release_connection(std::uint32_t id);
  void free_connection(std::uint32_t id);
  /// Measured requests still setting up (a debug-build invariant check).
  std::uint64_t measured_in_flight() const;
  std::optional<Wavelength> choose_wavelength(PathId path, std::uint64_t tag);
  void claim_channel(std::uint32_t id, EdgeId link, Wavelength wavelength);
  void release_channels(std::uint32_t id);
  void run_round();
  void finish(std::uint32_t id, const ProtocolSession::Completion& done);
  void record_result() const;

  std::shared_ptr<const Graph> graph_;
  EngineConfig config_;
  std::uint64_t seed_;

  PathCollection routes_;
  std::vector<PathId> pair_path_;  ///< src·n + dst → PathId (diag invalid)

  FixedSchedule schedule_;
  std::optional<ProtocolSession> session_;  ///< built after the routes
  Rng traffic_pairs_;  ///< src/dst draws (arrival order)
  Rng holding_;        ///< lifetime draws (establishment order)
  Rng fit_;            ///< RandomFit draws (decision order)
  ArrivalGenerator arrivals_;

  // Held circuits, kept twice and updated together by claim_channel and
  // release_channels (debug builds assert they agree). Byte link·B + λ of
  // channel_busy_ is 1 while a circuit holds that channel: the session's
  // forward passes borrow it in place (set_held, installed once; never
  // resized). held_words_ packs the same holds ⌈B/64⌉ words per link (bit
  // λ % 64 of word link·⌈B/64⌉ + λ / 64) for choose_wavelength, which ORs
  // a route's words instead of scanning bytes.
  std::vector<std::uint8_t> channel_busy_;
  std::vector<std::uint64_t> held_words_;
  std::uint64_t last_word_mask_ = 0;  ///< the band's bits of a last word
  std::vector<std::uint64_t> free_words_;  ///< chooser scratch, ⌈B/64⌉

  std::uint64_t& held_word(EdgeId link, Wavelength wavelength) {
    return held_words_[static_cast<std::size_t>(link) * free_words_.size() +
                       wavelength / 64];
  }

  // Connection table, ids recycled through a free list so its size is
  // the peak number of concurrent connections, not total arrivals.
  std::vector<Connection> connections_;
  std::vector<std::uint32_t> free_ids_;

  struct Departure {
    double time = 0.0;
    std::uint32_t connection = 0;
    // Strict weak order with an id tiebreaker: comparing `time` alone
    // leaves equal-time departures unordered, so their pop order would
    // depend on heap internals.
    bool operator>(const Departure& other) const {
      if (time != other.time) return time > other.time;
      return connection > other.connection;
    }
  };
  std::vector<Departure> departures_;  ///< min-heap via std::*_heap

  // Round-scoped scratch (hoisted: steady state allocates nothing).
  // Tags whose chooser found every wavelength busy this round; removed
  // as blocked after the round (loss-call-cleared).
  std::vector<std::uint64_t> no_capacity_;

  EngineResult result_;
  double now_ = 0.0;
  std::uint64_t rounds_run_ = 0;
  bool ran_ = false;

  // Latency accounting: exact histogram over setup rounds (bounded by
  // max_setup_rounds) and a log-bucketed histogram over wall ns (4
  // sub-buckets per octave, ≤ ~19% quantile error) — both O(1) memory
  // regardless of arrival count.
  std::vector<std::uint64_t> rounds_histogram_;
  std::vector<std::uint64_t> wall_histogram_;
  double setup_rounds_total_ = 0.0;
};

}  // namespace opto
