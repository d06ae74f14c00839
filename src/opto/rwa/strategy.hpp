// Pluggable static RWA strategies — the paper's §1.2/§4 comparator
// family, measured head-to-head against Trial-and-Failure (E19).
//
// A Strategy is re-entrant the way ProtocolSession is: begin() binds it
// to a graph's hop table (ksp.hpp) and clears all per-round wavelength
// occupancy, and assign() serves one request at a time in admission
// (uid) order. Every strategy kind and every pool worker searching one
// graph reads the same table, so a destination's hop row is computed
// once per graph, not once per strategy or thread. A request's candidate
// routes are searched once per run: a memo indexed by uid keeps them,
// as link spans in one route list, for the rounds of the run and is
// emptied at round 1. Every decision is a pure function of (graph,
// config, round, uid, previously accepted set): the only randomness is
// drawn from the counter-based Philox RNG keyed by (seed, round, uid,
// slot), so Random-Fit and Valiant draws are order-, thread-, and
// batch-shape-independent (DESIGN.md §11 determinism contract).
//
// Decisions carry their routes as PathViews into the strategy's own
// storage (the memo, Valiant's route buffer) or into whatever the
// strategy routes on (the static baseline's collection); a decision is
// read, or copied into a PathCollection, before the strategy's next
// assign() or begin().
//
// Wavelengths live in the hard band [0, bandwidth): a request that has
// no feasible (candidate route, free wavelength) pair is blocked for
// the round and retried by the round driver (schedule.hpp) on a fresh
// band — the analogue of a Trial-and-Failure round.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "opto/graph/graph.hpp"
#include "opto/optical/worm.hpp"
#include "opto/paths/path.hpp"
#include "opto/rwa/ksp.hpp"

namespace opto::rwa {

enum class StrategyKind : std::uint8_t {
  FirstFit,   ///< first candidate route with a free wavelength, lowest λ
  LeastUsed,  ///< same route rule; spread over already-used wavelengths
  RandomFit,  ///< same route rule; keyed Philox draw over the free set
  Multipath,  ///< stripe across link-disjoint candidates, first-fit λ
  Valiant,    ///< oblivious two-leg route via a keyed random waypoint
};

const char* to_string(StrategyKind kind);
std::optional<StrategyKind> parse_strategy_kind(const std::string& name);

/// All strategy kinds in canonical (enum) order — the zoo.
std::vector<StrategyKind> all_strategy_kinds();

struct RwaRequest {
  NodeId source = 0;
  NodeId destination = 0;
};

struct RwaConfig {
  std::uint16_t bandwidth = 1;   ///< wavelengths per round (B >= 1)
  std::uint32_t candidates = 3;  ///< k candidate routes per request (>= 1)
  std::uint32_t split_ways = 2;  ///< multipath stripe width (>= 1)
  std::uint64_t seed = 1;        ///< Philox key (RandomFit, Valiant)
};

/// One accepted request: the chosen route(s) and their wavelengths.
/// Exactly one route except for the multipath splitter, which may
/// stripe a request over several link-disjoint routes. A zero-length
/// route (source == destination) carries wavelength 0 and occupies
/// nothing. The routes are views, valid until the strategy's next
/// assign() or begin(); copy them (into a Path or a PathCollection) to
/// keep them longer.
struct RwaDecision {
  bool accepted = false;
  std::vector<PathView> routes;
  std::vector<Wavelength> lambdas;  ///< parallel to routes
};

class Strategy {
 public:
  virtual ~Strategy() = default;
  virtual StrategyKind kind() const = 0;
  const char* name() const { return to_string(kind()); }

  /// Re-binds the strategy to the graph of `routes` for one assignment
  /// round and clears all wavelength occupancy; its route searches read
  /// `routes`. The table and its graph must outlive the round. The
  /// candidate memo survives across the rounds of one schedule run
  /// (begin() calls with round > 1 on the same table) and empties at
  /// round 1 — the strategy does not own the table, so a reused heap
  /// address must never revive routes searched for a previous topology.
  virtual void begin(const HopTable& routes, const RwaConfig& config,
                     std::uint32_t round);

  /// Serves one request; uid is its stable identity across rounds (the
  /// Philox counter, the launch priority and the memo index, so uids are
  /// dense: the request's index). Accepted decisions claim their
  /// (link, λ) channels immediately.
  virtual RwaDecision assign(const RwaRequest& request, std::uint32_t uid) = 0;

 protected:
  /// A request's candidate routes, in canonical KSP order.
  struct Candidates {
    const RouteList* list;
    NodeId source;
    NodeId destination;
    std::uint32_t first;
    std::uint32_t count;

    std::uint32_t size() const { return count; }
    PathView operator[](std::uint32_t i) const {
      return {source, destination, (*list)[first + i]};
    }
  };

  /// The candidate routes of request `uid`, searched on its first
  /// assign() of the run and read from the memo after; the views are
  /// valid until the next assign() or begin().
  Candidates candidates(const RwaRequest& request, std::uint32_t uid);

  /// The occupancy helpers read routes as views, so a route may be a
  /// Path, a candidate or a member of a PathCollection read in place.
  bool channel_free(PathView route, Wavelength lambda) const;
  void claim(PathView route, Wavelength lambda);

  /// Lowest free wavelength on `route`, or nullopt if the band is full.
  std::optional<Wavelength> first_fit(PathView route) const;

  /// Builds the canonical single-route decision and claims its channels.
  RwaDecision accept(PathView route, Wavelength lambda);

  const HopTable* routes_ = nullptr;
  const Graph* graph_ = nullptr;  ///< the graph of routes_
  RwaConfig config_;
  std::uint32_t round_ = 0;
  /// occupancy_[link * bandwidth + λ]: channel claimed this round.
  std::vector<char> occupancy_;
  /// usage_[λ]: links claimed on wavelength λ this round (LeastUsed).
  std::vector<std::uint32_t> usage_;

 private:
  static constexpr std::uint32_t kUnsearched = ~0u;
  /// Request uid's candidates: routes [first, first + count) of
  /// memo_routes_, searched for (source, destination). A uid served again
  /// with other endpoints (only callers outside a schedule run do that)
  /// is searched again.
  struct Memo {
    NodeId source = kInvalidNode;
    NodeId destination = kInvalidNode;
    std::uint32_t first = 0;
    std::uint32_t count = kUnsearched;
  };
  std::vector<Memo> memo_;  ///< by uid
  RouteList memo_routes_;
};

std::unique_ptr<Strategy> make_strategy(StrategyKind kind);

}  // namespace opto::rwa
