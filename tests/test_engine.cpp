// Streaming traffic engine: arrival generators, the event loop, the
// Erlang-B analytic cross-check, the dynamic-RWA blocking shape ([34],
// E14) on a ring and a torus, determinism, memory bounds, the
// route-table bound, and agreement with the naive reference engine.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "opto/engine/engine.hpp"
#include "opto/engine/traffic.hpp"
#include "opto/graph/mesh.hpp"
#include "opto/graph/ring.hpp"
#include "opto/testlib/reference_engine.hpp"

namespace opto {
namespace {

// --- arrival generators -------------------------------------------------

TEST(ArrivalGenerator, PoissonMeanGapMatchesRate) {
  TrafficConfig config;
  config.process = ArrivalProcess::Poisson;
  config.rate = 4.0;
  ArrivalGenerator gen(config, 7);
  double total = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) total += gen.next_gap();
  EXPECT_NEAR(total / n, 1.0 / config.rate, 0.01);
  EXPECT_DOUBLE_EQ(mean_arrival_rate(config), 4.0);
}

TEST(ArrivalGenerator, MmppLongRunRateMatchesFormula) {
  TrafficConfig config;
  config.process = ArrivalProcess::Mmpp;
  config.rate = 2.0;
  config.mmpp_burst = 4.0;
  config.mmpp_calm = 0.25;
  config.mmpp_mean_dwell = 8.0;
  ArrivalGenerator gen(config, 11);
  double total = 0.0;
  const int n = 400000;
  for (int i = 0; i < n; ++i) total += gen.next_gap();
  const double expected_rate = mean_arrival_rate(config);
  EXPECT_DOUBLE_EQ(expected_rate, 2.0 * (4.0 + 0.25) / 2.0);
  EXPECT_NEAR(static_cast<double>(n) / total, expected_rate,
              0.05 * expected_rate);
}

TEST(ArrivalGenerator, MmppIsBurstier) {
  // Squared coefficient of variation of the gaps: 1 for Poisson,
  // > 1 for a bursty MMPP at the same mean rate.
  TrafficConfig config;
  config.process = ArrivalProcess::Mmpp;
  config.rate = 1.0;
  config.mmpp_burst = 8.0;
  config.mmpp_calm = 0.125;
  config.mmpp_mean_dwell = 32.0;
  ArrivalGenerator gen(config, 13);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double gap = gen.next_gap();
    sum += gap;
    sum_sq += gap * gap;
  }
  const double mean = sum / n;
  const double variance = sum_sq / n - mean * mean;
  EXPECT_GT(variance / (mean * mean), 1.5);
}

TEST(ArrivalGenerator, TraceReplaysCyclically) {
  TrafficConfig config;
  config.process = ArrivalProcess::Trace;
  config.trace = {0.5, 1.0, 0.25};
  ArrivalGenerator gen(config, 1);
  for (int cycle = 0; cycle < 3; ++cycle)
    for (const double gap : config.trace)
      EXPECT_DOUBLE_EQ(gen.next_gap(), gap);
  EXPECT_NEAR(mean_arrival_rate(config), 3.0 / 1.75, 1e-12);
}

TEST(ArrivalGenerator, DeterministicInSeed) {
  TrafficConfig config;
  config.process = ArrivalProcess::Mmpp;
  ArrivalGenerator a(config, 99), b(config, 99), c(config, 100);
  bool all_equal_c = true;
  for (int i = 0; i < 1000; ++i) {
    const double ga = a.next_gap();
    EXPECT_DOUBLE_EQ(ga, b.next_gap());
    all_equal_c = all_equal_c && ga == c.next_gap();
  }
  EXPECT_FALSE(all_equal_c);
}

// --- engine -------------------------------------------------------------

/// Erlang-B loss probability for offered load rho on b servers, via the
/// standard stable recurrence E_k = rho·E_{k-1} / (k + rho·E_{k-1}).
double erlang_b(double rho, int b) {
  double e = 1.0;
  for (int k = 1; k <= b; ++k) e = rho * e / (k + rho * e);
  return e;
}

std::shared_ptr<const Graph> single_link_graph() {
  GraphBuilder builder(2, "single-link");
  builder.add_edge(0, 1);
  return std::make_shared<Graph>(std::move(builder).build());
}

EngineConfig erlang_config(double erlangs_per_link, std::uint16_t bandwidth,
                           std::uint64_t arrivals) {
  EngineConfig config;
  config.protocol.bandwidth = bandwidth;
  // Two directed links; each ordered pair routes over its own fiber, so
  // each is an independent M/M/B/B system at rate/2 arrivals per unit
  // time.
  config.traffic.process = ArrivalProcess::Poisson;
  config.traffic.rate = 2.0 * erlangs_per_link;
  config.mean_holding_time = 1.0;
  config.round_interval = 0.01;  // decision delay ≪ holding time
  config.arrivals = arrivals;
  config.warmup = arrivals / 10;
  return config;
}

TEST(Engine, ErlangBCrossCheck) {
  // Acceptance bar: within 2% relative error of E(6, 8) ≈ 0.1217 at B=8.
  const double rho = 6.0;
  const auto analytic = erlang_b(rho, 8);
  Engine engine(single_link_graph(), erlang_config(rho, 8, 400000), 42);
  const auto result = engine.run();
  EXPECT_GT(result.offered, 300000u);
  EXPECT_NEAR(result.blocking_probability, analytic, 0.02 * analytic);
}

TEST(Engine, ErlangBLightLoad) {
  // Second operating point, away from the acceptance one: E(2, 4).
  const double rho = 2.0;
  const auto analytic = erlang_b(rho, 4);
  Engine engine(single_link_graph(), erlang_config(rho, 4, 300000), 7);
  const auto result = engine.run();
  EXPECT_NEAR(result.blocking_probability, analytic, 0.05 * analytic);
}

EngineConfig ring_config(double rate, std::uint16_t bandwidth,
                         std::uint64_t arrivals) {
  EngineConfig config;
  config.protocol.bandwidth = bandwidth;
  config.traffic.rate = rate;
  config.round_interval = 0.02;
  config.arrivals = arrivals;
  config.warmup = arrivals / 10;
  return config;
}

TEST(Engine, DeterministicInSeed) {
  // The trajectory is a pure function of the seed: every deterministic
  // result field must match bit-for-bit between two engines built with
  // the same seed (the thread-count half of the determinism story: CI
  // byte-compares whole BenchRecords across OPTO_THREADS), and another
  // seed must change the traffic outcome.
  auto ring = std::make_shared<Graph>(make_ring(8));
  const EngineConfig config = ring_config(24.0, 4, 20000);
  Engine first(ring, config, 5);
  const auto a = first.run();
  Engine second(ring, config, 5);
  const auto b = second.run();

  EXPECT_EQ(a.offered, b.offered);
  EXPECT_EQ(a.admitted, b.admitted);
  EXPECT_EQ(a.blocked, b.blocked);
  EXPECT_EQ(a.expired, b.expired);
  EXPECT_EQ(a.conflict_readmits, b.conflict_readmits);
  EXPECT_EQ(a.duplicate_deliveries, b.duplicate_deliveries);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.peak_active, b.peak_active);
  EXPECT_EQ(a.blocking_probability, b.blocking_probability);
  EXPECT_EQ(a.mean_setup_rounds, b.mean_setup_rounds);
  EXPECT_EQ(a.p50_setup_rounds, b.p50_setup_rounds);
  EXPECT_EQ(a.p99_setup_rounds, b.p99_setup_rounds);
  EXPECT_EQ(a.sim_duration, b.sim_duration);

  Engine other(ring, config, 6);
  const auto c = other.run();
  EXPECT_TRUE(c.offered != a.offered || c.admitted != a.admitted ||
              c.blocked != a.blocked);
}

TEST(Engine, MemoryBoundedByActiveConnections) {
  // Steady state: the connection table's high-water mark tracks the
  // number of concurrently active connections, not total arrivals.
  auto ring = std::make_shared<Graph>(make_ring(8));
  Engine engine(ring, ring_config(16.0, 4, 50000), 3);
  const auto result = engine.run();
  EXPECT_GT(result.admitted, 10000u);
  // ~16 circuits in flight on average; orders of magnitude below 50k.
  EXPECT_LT(result.peak_active, 500u);
}

TEST(Engine, RouteTableBoundStopsOversizedGraphs) {
  // n(n-1) pairs x routes of up to n/2 hops: ring-203 is the largest ring
  // inside kMaxRouteTableHops, and the constructor refuses a far larger
  // one before routing a single pair.
  EXPECT_TRUE(route_table_fits(203, 101));
  EXPECT_FALSE(route_table_fits(204, 102));
  EXPECT_TRUE(route_table_fits(2, 1));
  auto ring = std::make_shared<Graph>(make_ring(4096));
  EXPECT_DEATH(Engine(ring, ring_config(1.0, 1, 100), 1),
               "engine route table exceeds kMaxRouteTableHops");
}

std::shared_ptr<const Graph> torus_4x4() {
  return std::make_shared<Graph>(make_torus({4, 4}).graph);
}

TEST(Engine, BlockingMonotoneInLoad) {
  // Light load rarely blocks, heavy load visibly does, and blocking grows
  // in between — on a ring (long routes) and a torus (short routes).
  const struct {
    std::shared_ptr<const Graph> graph;
    std::vector<double> rates;
  } networks[] = {
      {std::make_shared<Graph>(make_ring(8)), {1.0, 8.0, 32.0, 128.0}},
      {torus_4x4(), {2.0, 32.0, 128.0}}};
  for (const auto& network : networks) {
    SCOPED_TRACE(network.graph->name());
    double previous = -1.0;
    for (const double rate : network.rates) {
      Engine engine(network.graph, ring_config(rate, 4, 30000), 9);
      const auto result = engine.run();
      EXPECT_GE(result.blocking_probability, previous) << "rate " << rate;
      if (previous < 0) {
        EXPECT_LT(result.blocking_probability, 0.01);
      }
      previous = result.blocking_probability;
    }
    EXPECT_GT(previous, 0.1);  // heavy load visibly blocks
  }
}

TEST(Engine, ConversionReducesBlocking) {
  // The [34] headline: dropping wavelength continuity visibly lowers
  // blocking at moderate load.
  const struct {
    std::shared_ptr<const Graph> graph;
    double rate;
    double min_blocking;  ///< without conversion
  } networks[] = {{std::make_shared<Graph>(make_ring(8)), 48.0, 0.05},
                  {torus_4x4(), 24.0, 0.02}};
  for (const auto& network : networks) {
    SCOPED_TRACE(network.graph->name());
    EngineConfig config = ring_config(network.rate, 4, 30000);
    Engine plain(network.graph, config, 21);
    const auto without = plain.run();
    config.protocol.conversion = ConversionMode::Full;
    Engine converting(network.graph, config, 21);
    const auto with = converting.run();
    EXPECT_LT(with.blocking_probability, without.blocking_probability);
    EXPECT_GT(without.blocking_probability, network.min_blocking);
  }
}

TEST(Engine, MoreWavelengthsReduceBlocking) {
  auto ring = std::make_shared<Graph>(make_ring(12));
  Engine narrow(ring, ring_config(16.0, 2, 6000), 5);
  Engine wide(ring, ring_config(16.0, 16, 6000), 5);
  EXPECT_LT(wide.run().blocking_probability,
            narrow.run().blocking_probability);
}

TEST(Engine, LatencyQuantilesOrderedAndPositive) {
  auto ring = std::make_shared<Graph>(make_ring(8));
  Engine engine(ring, ring_config(32.0, 4, 20000), 17);
  const auto result = engine.run();
  EXPECT_GE(result.p50_setup_rounds, 1.0);
  EXPECT_GE(result.p99_setup_rounds, result.p50_setup_rounds);
  EXPECT_GE(result.mean_setup_rounds, 1.0);
  EXPECT_GE(result.p99_setup_wall_ns, result.p50_setup_wall_ns);
  EXPECT_GT(result.requests_per_s, 0.0);
  EXPECT_GT(result.sim_duration, 0.0);
  EXPECT_EQ(result.offered, result.admitted + result.blocked);
}

TEST(Engine, MmppBlocksMoreThanPoissonAtSameMeanRate) {
  // Burstiness hurts: at matched long-run offered load, the MMPP's
  // burst periods overload the link and its calm periods waste it.
  const double rho = 5.0;
  EngineConfig poisson = erlang_config(rho, 6, 120000);
  Engine a(single_link_graph(), poisson, 31);
  const auto smooth = a.run();

  EngineConfig bursty = poisson;
  bursty.traffic.process = ArrivalProcess::Mmpp;
  bursty.traffic.mmpp_burst = 4.0;
  bursty.traffic.mmpp_calm = 0.25;
  bursty.traffic.mmpp_mean_dwell = 8.0;
  // Match the long-run rate: λ·(burst+calm)/2 = poisson rate.
  bursty.traffic.rate =
      poisson.traffic.rate / ((4.0 + 0.25) / 2.0);
  Engine b(single_link_graph(), bursty, 31);
  const auto burst = b.run();

  EXPECT_GT(burst.blocking_probability, smooth.blocking_probability * 1.2);
}

TEST(Engine, TraceDrivenRunIsExact) {
  // A trace far apart in time with holding ≪ gap: nothing ever blocks.
  auto graph = single_link_graph();
  EngineConfig config;
  config.protocol.bandwidth = 2;
  config.traffic.process = ArrivalProcess::Trace;
  config.traffic.trace = {1.0};
  config.mean_holding_time = 0.05;
  config.round_interval = 0.05;
  config.arrivals = 3000;
  config.warmup = 100;
  Engine engine(graph, config, 2);
  const auto result = engine.run();
  EXPECT_EQ(result.blocked, 0u);
  EXPECT_EQ(result.admitted, result.offered);
  EXPECT_LE(result.peak_active, 4u);
}

// --- reference engine ----------------------------------------------------

TEST(EngineReference, EveryDeterministicFieldMatchesTheNaiveEngine) {
  // The naive engine of testlib/reference_engine.hpp draws every rank,
  // scans held bytes for a wavelength and runs each pass through the
  // reference simulator. B = 70 puts wavelengths past the first word of
  // the engine's held words; the rates load each network to blocking.
  const struct {
    std::shared_ptr<const Graph> graph;
    double rate_per_wavelength;
  } networks[] = {{std::make_shared<Graph>(make_ring(8)), 8.0},
                  {std::make_shared<Graph>(make_mesh({4, 4}).graph), 16.0}};
  std::uint64_t blocked = 0;
  std::uint64_t readmits = 0;
  for (const auto& network : networks)
    for (const ConversionMode conversion :
         {ConversionMode::None, ConversionMode::Full})
      for (const WavelengthFit fit :
           {WavelengthFit::FirstFit, WavelengthFit::RandomFit})
        for (const std::uint16_t bandwidth : {1, 4, 70})
          for (const std::uint64_t seed : {3, 4}) {
            SCOPED_TRACE(network.graph->name() + " " + to_string(conversion) +
                         " " + to_string(fit) + " B=" +
                         std::to_string(bandwidth) + " seed " +
                         std::to_string(seed));
            EngineConfig config = ring_config(
                network.rate_per_wavelength * bandwidth, bandwidth, 1500);
            config.protocol.conversion = conversion;
            config.fit = fit;
            Engine engine(network.graph, config, seed);
            const EngineResult a = engine.run();
            const EngineResult b =
                testlib::reference_engine(network.graph, config, seed);
            EXPECT_EQ(a.offered, b.offered);
            EXPECT_EQ(a.admitted, b.admitted);
            EXPECT_EQ(a.blocked, b.blocked);
            EXPECT_EQ(a.expired, b.expired);
            EXPECT_EQ(a.conflict_readmits, b.conflict_readmits);
            EXPECT_EQ(a.duplicate_deliveries, b.duplicate_deliveries);
            EXPECT_EQ(a.rounds, b.rounds);
            EXPECT_EQ(a.peak_active, b.peak_active);
            EXPECT_EQ(a.blocking_probability, b.blocking_probability);
            EXPECT_EQ(a.mean_setup_rounds, b.mean_setup_rounds);
            EXPECT_EQ(a.p50_setup_rounds, b.p50_setup_rounds);
            EXPECT_EQ(a.p99_setup_rounds, b.p99_setup_rounds);
            EXPECT_EQ(a.sim_duration, b.sim_duration);
            blocked += a.blocked;
            readmits += a.conflict_readmits;
          }
  // The sweep reaches loss-call-cleared blocking and conflict re-admits.
  EXPECT_GT(blocked, 0u);
  EXPECT_GT(readmits, 0u);
}

}  // namespace
}  // namespace opto
