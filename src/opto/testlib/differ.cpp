#include "opto/testlib/differ.hpp"

#include <numeric>
#include <optional>
#include <set>
#include <span>
#include <sstream>
#include <utility>

#include "opto/rwa/ksp.hpp"
#include "opto/rwa/schedule.hpp"
#include "opto/rwa/strategy.hpp"
#include "opto/sim/reference.hpp"
#include "opto/sim/validate.hpp"
#include "opto/testlib/reference_ksp.hpp"

namespace opto::testlib {
namespace {

void report_worm(std::vector<std::string>* issues, const char* source,
                 WormId id, const char* field, long long fast,
                 long long other) {
  std::ostringstream os;
  os << "[" << source << "] worm " << id << ": " << field
     << " mismatch (engine " << fast << " vs " << other << ")";
  issues->push_back(os.str());
}

void report_metric(std::vector<std::string>* issues, const char* source,
                   const char* name, std::uint64_t fast, std::uint64_t other) {
  std::ostringstream os;
  os << "[" << source << "] metrics." << name << " mismatch (engine " << fast
     << " vs " << other << ")";
  issues->push_back(os.str());
}

/// Field-for-field comparison against the reference engine: everything
/// the flit-level model defines (statuses, times, witnesses, and the
/// model-level counters; the fast engine's instrumentation counters —
/// probes, steps, peak_inflight — have no reference analogue).
void compare_to_reference(const PassResult& fast, const PassResult& ref,
                          std::vector<std::string>* issues, const char* src) {
  if (fast.wavelength_offsets != ref.wavelength_offsets ||
      fast.wavelengths != ref.wavelengths) {
    std::ostringstream os;
    os << "[" << src << "] per-link wavelength histories differ";
    issues->push_back(os.str());
  }
  for (WormId id = 0; id < fast.worms.size(); ++id) {
    const WormOutcome& a = fast.worms[id];
    const WormOutcome& b = ref.worms[id];
    if (a.status != b.status) {
      std::ostringstream os;
      os << "[" << src << "] worm " << id << ": status mismatch (engine "
         << to_string(a.status) << " vs " << to_string(b.status) << ")";
      issues->push_back(os.str());
      continue;  // downstream fields are defined relative to the status
    }
    if (a.finish_time != b.finish_time)
      report_worm(issues, src, id, "finish_time", a.finish_time,
                  b.finish_time);
    if (a.truncated != b.truncated)
      report_worm(issues, src, id, "truncated", a.truncated, b.truncated);
    if (a.pinned_loss != b.pinned_loss)
      report_worm(issues, src, id, "pinned_loss", a.pinned_loss,
                  b.pinned_loss);
    if (a.status == WormStatus::Killed) {
      if (a.blocked_by != b.blocked_by)
        report_worm(issues, src, id, "blocked_by", a.blocked_by, b.blocked_by);
      if (a.blocked_at_link != b.blocked_at_link)
        report_worm(issues, src, id, "blocked_at_link", a.blocked_at_link,
                    b.blocked_at_link);
    }
  }
  const PassMetrics& m = fast.metrics;
  const PassMetrics& r = ref.metrics;
  if (m.launched != r.launched)
    report_metric(issues, src, "launched", m.launched, r.launched);
  if (m.delivered != r.delivered)
    report_metric(issues, src, "delivered", m.delivered, r.delivered);
  if (m.killed != r.killed)
    report_metric(issues, src, "killed", m.killed, r.killed);
  if (m.truncated != r.truncated)
    report_metric(issues, src, "truncated", m.truncated, r.truncated);
  if (m.truncated_arrivals != r.truncated_arrivals)
    report_metric(issues, src, "truncated_arrivals", m.truncated_arrivals,
                  r.truncated_arrivals);
  if (m.contentions != r.contentions)
    report_metric(issues, src, "contentions", m.contentions, r.contentions);
  if (m.retunes != r.retunes)
    report_metric(issues, src, "retunes", m.retunes, r.retunes);
  if (m.pinned_blocks != r.pinned_blocks)
    report_metric(issues, src, "pinned_blocks", m.pinned_blocks,
                  r.pinned_blocks);
  if (m.worm_steps != r.worm_steps)
    report_metric(issues, src, "worm_steps", m.worm_steps, r.worm_steps);
  if (static_cast<std::uint64_t>(m.makespan) !=
      static_cast<std::uint64_t>(r.makespan))
    report_metric(issues, src, "makespan",
                  static_cast<std::uint64_t>(m.makespan),
                  static_cast<std::uint64_t>(r.makespan));
}

/// Exact comparison between two runs of the production engine that must
/// agree on every field, instrumentation included (wall_ns excluded: it
/// is real time, not model time). Used by the determinism stage (two
/// identical runs) and the screen stage (an untraced pass against the
/// traced one).
void compare_runs(const PassResult& a, const PassResult& b,
                  std::vector<std::string>* issues, const char* src) {
  if (a.wavelength_offsets != b.wavelength_offsets ||
      a.wavelengths != b.wavelengths) {
    std::ostringstream os;
    os << "[" << src << "] per-link wavelength histories differ";
    issues->push_back(os.str());
  }
  for (WormId id = 0; id < a.worms.size(); ++id) {
    const WormOutcome& x = a.worms[id];
    const WormOutcome& y = b.worms[id];
    if (x.status != y.status)
      report_worm(issues, src, id, "status", static_cast<long long>(x.status),
                  static_cast<long long>(y.status));
    if (x.truncated != y.truncated)
      report_worm(issues, src, id, "truncated", x.truncated, y.truncated);
    if (x.corrupted != y.corrupted)
      report_worm(issues, src, id, "corrupted", x.corrupted, y.corrupted);
    if (x.fault_loss != y.fault_loss)
      report_worm(issues, src, id, "fault_loss", x.fault_loss, y.fault_loss);
    if (x.pinned_loss != y.pinned_loss)
      report_worm(issues, src, id, "pinned_loss", x.pinned_loss,
                  y.pinned_loss);
    if (x.finish_time != y.finish_time)
      report_worm(issues, src, id, "finish_time", x.finish_time,
                  y.finish_time);
    if (x.blocked_at_link != y.blocked_at_link)
      report_worm(issues, src, id, "blocked_at_link", x.blocked_at_link,
                  y.blocked_at_link);
    if (x.blocked_by != y.blocked_by)
      report_worm(issues, src, id, "blocked_by", x.blocked_by, y.blocked_by);
  }
  const PassMetrics& m = a.metrics;
  const PassMetrics& n = b.metrics;
  const auto check = [issues, src](const char* name, std::uint64_t x,
                                   std::uint64_t y) {
    if (x != y) report_metric(issues, src, name, x, y);
  };
  check("launched", m.launched, n.launched);
  check("delivered", m.delivered, n.delivered);
  check("killed", m.killed, n.killed);
  check("truncated", m.truncated, n.truncated);
  check("truncated_arrivals", m.truncated_arrivals, n.truncated_arrivals);
  check("contentions", m.contentions, n.contentions);
  check("retunes", m.retunes, n.retunes);
  check("fault_kills", m.fault_kills, n.fault_kills);
  check("pinned_blocks", m.pinned_blocks, n.pinned_blocks);
  check("corrupted", m.corrupted, n.corrupted);
  check("corrupted_arrivals", m.corrupted_arrivals, n.corrupted_arrivals);
  check("makespan", static_cast<std::uint64_t>(m.makespan),
        static_cast<std::uint64_t>(n.makespan));
  check("worm_steps", m.worm_steps, n.worm_steps);
  check("link_busy_steps", m.link_busy_steps, n.link_busy_steps);
  check("steps", m.steps, n.steps);
  check("registry_probes", m.registry_probes, n.registry_probes);
  check("registry_hits", m.registry_hits, n.registry_hits);
  check("peak_inflight", m.peak_inflight, n.peak_inflight);
}

/// Raw trace equality: a rerun must not even reorder events within a
/// timestamp, so the determinism stage compares the recorded stream
/// event by event.
void compare_traces_exact(const PassResult& a, const PassResult& b,
                          std::vector<std::string>* issues, const char* src) {
  const auto& x = a.trace.events();
  const auto& y = b.trace.events();
  if (x.size() != y.size()) {
    std::ostringstream os;
    os << "[" << src << "] raw trace size mismatch (" << x.size() << " vs "
       << y.size() << " events)";
    issues->push_back(os.str());
    return;
  }
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i] == y[i]) continue;
    std::ostringstream os;
    os << "[" << src << "] raw trace diverges at event " << i << " (\""
       << Trace::describe(x[i]) << "\" vs \"" << Trace::describe(y[i])
       << "\")";
    issues->push_back(os.str());
    return;  // one divergence is enough; later events usually cascade
  }
}

/// Manual replay of one strategy over the full round loop, checking the
/// decisions themselves (run_strategy_schedule proves collision-freedom
/// indirectly through a simulated pass, but its OPTO_ASSERT would abort
/// the fuzzer instead of producing a shrinkable issue — so the differ
/// re-derives the invariants from the decisions and reports). Returns
/// the round-1 blocked count, or nullopt if any invariant broke.
std::optional<std::uint64_t> replay_strategy(
    const rwa::HopTable& routes, std::span<const rwa::RwaRequest> requests,
    rwa::StrategyKind kind, const rwa::StrategyScheduleConfig& config,
    std::vector<std::string>* issues) {
  const std::size_t before = issues->size();
  const auto strategy = rwa::make_strategy(kind);
  const char* name = rwa::to_string(kind);
  const auto complain = [&](std::uint32_t round, std::uint32_t uid,
                            const std::string& what) {
    std::ostringstream os;
    os << "[rwa] " << name << " round " << round << " request " << uid << ": "
       << what;
    issues->push_back(os.str());
  };

  std::uint64_t blocked_first_round = 0;
  std::vector<std::uint32_t> pending(requests.size());
  std::iota(pending.begin(), pending.end(), 0);
  for (std::uint32_t round = 1;
       round <= config.max_rounds && !pending.empty(); ++round) {
    strategy->begin(routes, config.rwa, round);
    std::set<std::pair<EdgeId, Wavelength>> claimed;
    std::vector<std::uint32_t> still_pending;
    for (const std::uint32_t uid : pending) {
      const rwa::RwaDecision decision =
          strategy->assign(requests[uid], uid);
      if (!decision.accepted) {
        still_pending.push_back(uid);
        if (round == 1) ++blocked_first_round;
        continue;
      }
      if (decision.routes.empty() ||
          decision.routes.size() != decision.lambdas.size()) {
        complain(round, uid, "accepted with mismatched routes/lambdas");
        continue;
      }
      for (std::size_t i = 0; i < decision.routes.size(); ++i) {
        const PathView route = decision.routes[i];
        const Wavelength lambda = decision.lambdas[i];
        if (route.source() != requests[uid].source ||
            route.destination() != requests[uid].destination) {
          complain(round, uid, "route does not connect the request's "
                               "source to its destination");
          continue;
        }
        if (lambda >= config.rwa.bandwidth) {
          std::ostringstream os;
          os << "wavelength " << lambda << " outside the band [0, "
             << config.rwa.bandwidth << ")";
          complain(round, uid, os.str());
          continue;
        }
        for (const EdgeId link : route.links()) {
          if (!claimed.insert({link, lambda}).second) {
            std::ostringstream os;
            os << "channel (link " << link << ", lambda " << lambda
               << ") claimed twice in one round";
            complain(round, uid, os.str());
          }
        }
      }
    }
    pending = std::move(still_pending);
  }
  if (issues->size() != before) return std::nullopt;
  return blocked_first_round;
}

/// The library's route search against the plain Yen reference for every
/// distinct (source, destination) of the requests, at k = 4.
void check_route_search(const rwa::HopTable& routes,
                        std::span<const rwa::RwaRequest> requests,
                        std::vector<std::string>* issues) {
  constexpr std::uint32_t kRoutes = 4;
  std::set<std::pair<NodeId, NodeId>> pairs;
  for (const rwa::RwaRequest& request : requests)
    pairs.emplace(request.source, request.destination);
  for (const auto& [source, destination] : pairs) {
    const auto actual =
        rwa::k_shortest_routes(routes, source, destination, kRoutes);
    const auto expected = reference_k_shortest_routes(
        routes.graph(), source, destination, kRoutes);
    if (actual == expected) continue;
    std::size_t at = 0;
    while (at < actual.size() && at < expected.size() &&
           actual[at] == expected[at])
      ++at;
    std::ostringstream os;
    os << "[rwa] k_shortest_routes(" << source << "->" << destination
       << ", k=" << kRoutes << ") differs from the reference Yen at route "
       << at << " (" << actual.size() << " vs " << expected.size()
       << " routes)";
    issues->push_back(os.str());
  }
}

/// Stage 6: the route search against its reference, then every RWA
/// strategy over the case's path endpoints — decision invariants via the
/// manual replay, then two independent scheduled runs that must agree
/// field-for-field (counter-based RNG determinism).
void diff_rwa(std::shared_ptr<const Graph> graph, const FuzzCase& fuzz,
              DiffReport* report) {
  std::vector<rwa::RwaRequest> requests;
  requests.reserve(fuzz.paths.size());
  for (const auto& nodes : fuzz.paths)
    requests.push_back(rwa::RwaRequest{nodes.front(), nodes.back()});
  if (requests.empty()) return;
  report->rwa_requests = requests.size();
  const rwa::HopTable routes(*graph);
  check_route_search(routes, requests, &report->issues);

  rwa::StrategyScheduleConfig config;
  config.rwa.bandwidth = fuzz.bandwidth;
  config.rwa.candidates = 2;
  config.rwa.split_ways = 2;
  config.rwa.seed = fuzz.seed ^ (fuzz.index * 0x9e3779b97f4a7c15ull);
  config.worm_length = 2;
  config.max_rounds = 4;

  for (const rwa::StrategyKind kind : rwa::all_strategy_kinds()) {
    const auto blocked = replay_strategy(routes, requests, kind, config,
                                         &report->issues);
    // An invalid assignment would trip run_strategy_schedule's own
    // collision assert; the replay already reported it, so stop here.
    if (!blocked) continue;

    const auto run_once = [&] {
      const auto strategy = rwa::make_strategy(kind);
      return rwa::run_strategy_schedule(graph, requests, *strategy, config);
    };
    const rwa::StrategyRunResult a = run_once();
    const rwa::StrategyRunResult b = run_once();
    const char* name = rwa::to_string(kind);
    const auto check = [&](const char* field, std::uint64_t x,
                           std::uint64_t y) {
      if (x == y) return;
      std::ostringstream os;
      os << "[rwa] " << name << ": " << field << " differs between two "
         << "identical runs (" << x << " vs " << y << ")";
      report->issues.push_back(os.str());
    };
    check("success", a.success, b.success);
    check("rounds", a.rounds, b.rounds);
    check("blocked_first_round", a.blocked_first_round,
          b.blocked_first_round);
    check("colors", a.colors, b.colors);
    check("makespan", static_cast<std::uint64_t>(a.makespan),
          static_cast<std::uint64_t>(b.makespan));
    check("worm_steps", a.worm_steps, b.worm_steps);
    // The replay and the scheduled run walk the same decision sequence;
    // their round-1 blocked counts tie the two views together.
    check("blocked_first_round (replay vs scheduled run)", *blocked,
          a.blocked_first_round);
    report->rwa_blocked += a.blocked_first_round;
  }
}

}  // namespace

std::string DiffReport::summary(std::size_t max_items) const {
  std::ostringstream os;
  for (std::size_t i = 0; i < issues.size() && i < max_items; ++i)
    os << (i > 0 ? "\n" : "") << issues[i];
  if (issues.size() > max_items)
    os << "\n... (" << issues.size() - max_items << " more)";
  return os.str();
}

DiffReport diff_case(const FuzzCase& fuzz) {
  DiffReport report;
  std::string shape_error;
  if (!well_formed(fuzz, &shape_error)) {
    report.issues.push_back("[case] " + shape_error);
    return report;
  }

  const auto built = build_case(fuzz);
  SimConfig config = built->config;  // plan pointer stays valid: same scope
  config.record_trace = true;        // validate_occupancy needs the trace

  const std::span<const PinnedSlot> pinned{fuzz.pinned.data(),
                                           fuzz.pinned.size()};
  const std::vector<std::uint8_t> held = held_mask(
      built->collection.graph().link_count(), config.bandwidth, pinned);
  Simulator first(built->collection, config);
  first.set_held(held);
  const PassResult fast = first.run(fuzz.specs);
  report.metrics = fast.metrics;

  // A fresh engine instance must reproduce the pass bit-for-bit, raw
  // trace order included; this is the property --replay and the
  // committed repros rest on.
  Simulator second(built->collection, config);
  second.set_held(held);
  const PassResult again = second.run(fuzz.specs);
  compare_runs(fast, again, &report.issues, "determinism");
  compare_traces_exact(fast, again, &report.issues, "determinism");

  const ValidationReport pass_report =
      validate_pass(built->collection, config, fuzz.specs, fast);
  for (const std::string& violation : pass_report.violations)
    report.issues.push_back("[validate] " + violation);
  const ValidationReport occupancy_report =
      validate_occupancy(built->collection, fuzz.specs, fast);
  for (const std::string& violation : occupancy_report.violations)
    report.issues.push_back("[occupancy] " + violation);

  const bool faults_active =
      config.faults != nullptr && config.faults->enabled();
  std::optional<PassResult> ref;
  if (!faults_active) {
    ref = reference_run(built->collection, config, fuzz.specs, pinned);
    compare_to_reference(fast, *ref, &report.issues, "reference");
  }

  // Screen stage: every run above records the trace, and a traced pass
  // is stepped whole. The same case untraced goes through the contention
  // screen and must reproduce the traced pass bit for bit, and the
  // reference engine too.
  SimConfig untraced_config = config;
  untraced_config.record_trace = false;
  Simulator untraced_sim(built->collection, untraced_config);
  untraced_sim.set_held(held);
  const PassResult untraced = untraced_sim.run(fuzz.specs);
  compare_runs(fast, untraced, &report.issues, "screen");
  if (ref) compare_to_reference(untraced, *ref, &report.issues, "screen");

  diff_rwa(built->graph, fuzz, &report);
  return report;
}

}  // namespace opto::testlib
