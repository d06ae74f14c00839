// The DSL's anchor scenarios in tier-1. Each committed example is the
// operating point its bench sweeps around: bench_e1_leveled_upper,
// bench_e15_fault_resilience, bench_e17_streaming_engine and
// bench_e19_strategy_zoo build every cell from a copy of the file's spec
// with the dsl/runner.hpp builders, and `opto_run --run` runs the file
// through the same builders. So the equivalence holds by construction;
// what is left to check is that the builders map each field to the
// native object the bench means — the protocol, engine and strategy
// knobs and the built graph — which these tests pin value by value. Each
// scenario also runs at REPRO_SCALE=0.1 (the scenario-smoke operating
// point) to check that it exercises what it claims to.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "opto/core/schedule.hpp"
#include "opto/dsl/runner.hpp"
#include "opto/dsl/validate.hpp"

namespace opto::dsl {
namespace {

ScenarioSpec load_example(const std::string& stem) {
  const std::string path =
      std::string(OPTO_EXAMPLES_DIR) + "/" + stem + ".opto";
  ScenarioSpec spec;
  DslError error;
  EXPECT_EQ(load_scenario_file(path, spec, error), LoadStatus::Ok)
      << error.format();
  return spec;
}

std::string run_example(const ScenarioSpec& spec) {
  JsonValue result;
  std::string error;
  EXPECT_TRUE(run_scenario(spec, result, error)) << error;
  return result_text(result);
}

/// The knobs no anchor sets keep the protocol's defaults.
void expect_default_rules(const ProtocolConfig& protocol) {
  EXPECT_EQ(protocol.rule, ContentionRule::ServeFirst);
  EXPECT_EQ(protocol.tie, TiePolicy::KillAll);
  EXPECT_EQ(protocol.ack_mode, AckMode::Ideal);
  EXPECT_EQ(protocol.conversion, ConversionMode::None);
  EXPECT_DOUBLE_EQ(protocol.retry.max_backoff, RetryPolicy{}.max_backoff);
}

/// The paper's Δ-schedule with its default constants, as the benches'
/// paper_schedule_factory(L, B) builds it.
void expect_paper_schedule(const ScenarioSpec& spec) {
  const PathCollection collection = make_factory(spec)(spec.seed);
  const auto schedule = make_schedule(spec)(collection);
  EXPECT_NE(dynamic_cast<const PaperSchedule*>(schedule.get()), nullptr);
  EXPECT_EQ(spec.schedule.congestion_factor,
            PaperSchedule::Constants{}.congestion_factor);
  EXPECT_EQ(spec.schedule.log_floor_factor,
            PaperSchedule::Constants{}.log_floor_factor);
}

class DslEquivalence : public testing::Test {
 protected:
  void SetUp() override { setenv("REPRO_SCALE", "0.1", /*overwrite=*/1); }
  void TearDown() override { unsetenv("REPRO_SCALE"); }
};

TEST_F(DslEquivalence, E1LeveledUpperBuildsTheBenchOperatingPoint) {
  const ScenarioSpec spec = load_example("e1_leveled_upper");
  EXPECT_EQ(spec.seed, 11u);
  EXPECT_EQ(spec.trials, 30u);
  const ProtocolConfig protocol = make_protocol(spec);
  EXPECT_EQ(protocol.bandwidth, 4);
  EXPECT_EQ(protocol.worm_length, 8u);
  EXPECT_EQ(protocol.max_rounds, 2000u);
  EXPECT_EQ(protocol.faults, FaultConfig{});
  expect_default_rules(protocol);
  expect_paper_schedule(spec);

  // Dim-6 butterfly: 7 levels of 64 rows, 768 edges used both ways; one
  // row permutation per trial.
  const auto graph = build_graph(spec.topology);
  EXPECT_EQ(graph->node_count(), 448u);
  EXPECT_EQ(graph->link_count(), 1536u);
  const PathCollection collection = make_factory(spec)(spec.seed);
  EXPECT_EQ(collection.size(), 64u);
  EXPECT_EQ(collection.graph().link_count(), graph->link_count());

  const std::string result = run_example(spec);
  EXPECT_NE(result.find("\"label\":\"e1-leveled-upper\""), std::string::npos);
  EXPECT_NE(result.find("\"mode\":\"trials\""), std::string::npos);
}

TEST_F(DslEquivalence, E15FaultResilienceBuildsTheBenchOperatingPoint) {
  const ScenarioSpec spec = load_example("e15_fault_resilience");
  EXPECT_EQ(spec.seed, 151u);
  EXPECT_EQ(spec.trials, 30u);
  const ProtocolConfig protocol = make_protocol(spec);
  EXPECT_EQ(protocol.bandwidth, 2);
  EXPECT_EQ(protocol.worm_length, 4u);
  EXPECT_EQ(protocol.max_rounds, 16u);
  FaultConfig faults;
  faults.link_outage_rate = 0.4;
  faults.outage_period = 64;
  faults.outage_duration = 32;
  EXPECT_EQ(protocol.faults, faults);
  expect_default_rules(protocol);
  expect_paper_schedule(spec);

  const auto graph = build_graph(spec.topology);
  EXPECT_EQ(graph->node_count(), 448u);
  EXPECT_EQ(graph->link_count(), 1536u);

  const std::string result = run_example(spec);
  EXPECT_NE(result.find("\"label\":\"e15-fault-resilience\""),
            std::string::npos);
  // A 40% link-outage plan must actually lose worms to faults, or the
  // scenario is a no-fault run under another name.
  EXPECT_EQ(result.find("\"fault_losses\":{\"count\":0}"), std::string::npos);
}

TEST_F(DslEquivalence, E17StreamingEngineBuildsTheBenchOperatingPoint) {
  const ScenarioSpec spec = load_example("e17_streaming_engine");
  EXPECT_EQ(spec.seed, 99u);
  const EngineConfig config = make_engine_config(spec);
  EXPECT_EQ(config.protocol.bandwidth, 4);
  EXPECT_EQ(config.protocol.faults, FaultConfig{});
  expect_default_rules(config.protocol);
  EXPECT_EQ(config.traffic.process, ArrivalProcess::Poisson);
  EXPECT_DOUBLE_EQ(config.traffic.rate, 32.0);
  EXPECT_DOUBLE_EQ(config.round_interval, 0.02);
  EXPECT_DOUBLE_EQ(config.mean_holding_time, 1.0);
  EXPECT_EQ(config.round_delta, 8);
  EXPECT_EQ(config.max_setup_rounds, 32u);
  // 60000 arrivals at REPRO_SCALE=0.1, a tenth of them warmup.
  EXPECT_EQ(config.arrivals, 6000u);
  EXPECT_EQ(config.warmup, 600u);
  EXPECT_EQ(config.fit, WavelengthFit::FirstFit);
  EXPECT_TRUE(config.record);

  const auto graph = build_graph(spec.topology);
  EXPECT_EQ(graph->node_count(), 8u);
  EXPECT_EQ(graph->link_count(), 16u);

  const std::string result = run_example(spec);
  EXPECT_NE(result.find("\"label\":\"e17-streaming-engine\""),
            std::string::npos);
  EXPECT_NE(result.find("\"mode\":\"engine\""), std::string::npos);
}

TEST_F(DslEquivalence, E19StrategyZooBuildsTheBenchOperatingPoint) {
  const ScenarioSpec spec = load_example("e19_strategy_zoo");
  // The example runs seed 19; bench_e19_strategy_zoo overrides it to 191.
  EXPECT_EQ(spec.seed, 19u);
  EXPECT_EQ(spec.trials, 30u);
  ASSERT_TRUE(spec.strategy.declared);
  EXPECT_EQ(rwa::parse_strategy_kind(spec.strategy.kind),
            rwa::StrategyKind::LeastUsed);
  const rwa::StrategyScheduleConfig config = make_strategy_config(spec);
  EXPECT_EQ(config.rwa.bandwidth, 2);
  EXPECT_EQ(config.rwa.candidates, 3u);
  EXPECT_EQ(config.rwa.split_ways, 2u);
  EXPECT_EQ(config.worm_length, 4u);
  EXPECT_EQ(config.max_rounds, 64u);

  // Radix-4 fat tree; one request per node, a random permutation.
  const auto graph = build_graph(spec.topology);
  EXPECT_EQ(graph->node_count(), 36u);
  EXPECT_EQ(graph->link_count(), 96u);
  const auto [instance_graph, requests] =
      make_instance_factory(spec)(spec.seed);
  EXPECT_EQ(instance_graph->link_count(), graph->link_count());
  EXPECT_EQ(requests.size(), graph->node_count());

  // The bench's Trial-and-Failure row runs the same spec under the paper
  // schedule with 2000 rounds.
  ScenarioSpec protocol_cell = spec;
  protocol_cell.protocol.max_rounds = 2000;
  const ProtocolConfig protocol = make_protocol(protocol_cell);
  EXPECT_EQ(protocol.bandwidth, 2);
  EXPECT_EQ(protocol.worm_length, 4u);
  EXPECT_EQ(protocol.max_rounds, 2000u);
  expect_default_rules(protocol);
  expect_paper_schedule(protocol_cell);

  const std::string result = run_example(spec);
  EXPECT_NE(result.find("\"label\":\"e19-strategy-zoo\""), std::string::npos);
}

}  // namespace
}  // namespace opto::dsl
