#include "opto/dsl/run_core.hpp"

#include <utility>

#include "opto/obs/obs.hpp"
#include "opto/util/stats.hpp"

namespace opto::dsl::detail {

namespace {

constexpr const char* kResultSchema = "opto.scenario.result";
constexpr int kResultSchemaVersion = 1;

JsonValue num(std::uint64_t value) {
  return JsonValue::of(static_cast<double>(value));
}

JsonValue result_root(const std::string& label, const char* mode,
                      std::uint64_t seed) {
  JsonValue root = JsonValue::make_object();
  root.add_member("schema", JsonValue::of(kResultSchema));
  root.add_member("schema_version",
                  JsonValue::of(static_cast<double>(kResultSchemaVersion)));
  root.add_member("label", JsonValue::of(label));
  root.add_member("mode", JsonValue::of(mode));
  root.add_member("seed", JsonValue::of(std::to_string(seed)));
  return root;
}

JsonValue sample_json(const SampleSet& samples) {
  JsonValue out = JsonValue::make_object();
  out.add_member("count", num(samples.count()));
  if (samples.count() > 0) {
    out.add_member("mean", JsonValue::of(samples.mean()));
    out.add_member("min", JsonValue::of(samples.min()));
    out.add_member("max", JsonValue::of(samples.max()));
    out.add_member("p50", JsonValue::of(samples.quantile(0.5)));
    out.add_member("p95", JsonValue::of(samples.quantile(0.95)));
  }
  return out;
}

}  // namespace

JsonValue run_closed(const CollectionFactory& factory,
                     const ScheduleFactory& schedule_factory,
                     const ProtocolConfig& config, std::size_t base_trials,
                     std::uint64_t seed, const std::string& label) {
  const std::size_t trials = scaled_trials(base_trials);
  const TrialAggregate aggregate =
      run_trials(factory, schedule_factory, config, trials, seed);

  obs::annotate("scenario", label);
  obs::set_metric("success_rate", aggregate.success_rate());
  obs::set_metric("failures", static_cast<double>(aggregate.failures));
  if (aggregate.rounds.count() > 0)
    obs::set_metric("rounds_mean", aggregate.rounds.mean());
  if (aggregate.charged_time.count() > 0)
    obs::set_metric("charged_time_mean", aggregate.charged_time.mean());

  JsonValue root = result_root(label, "trials", seed);
  root.add_member("trials", num(aggregate.trials));
  root.add_member("failures", num(aggregate.failures));
  root.add_member("success_rate", JsonValue::of(aggregate.success_rate()));
  root.add_member("ack_drops", num(aggregate.ack_drops));
  root.add_member("duplicates", num(aggregate.duplicates));
  root.add_member("rounds", sample_json(aggregate.rounds));
  root.add_member("charged_time", sample_json(aggregate.charged_time));
  root.add_member("actual_time", sample_json(aggregate.actual_time));
  root.add_member("path_congestion", sample_json(aggregate.path_congestion));
  root.add_member("dilation", sample_json(aggregate.dilation));
  root.add_member("fault_losses", sample_json(aggregate.fault_losses));
  root.add_member("contention_losses",
                  sample_json(aggregate.contention_losses));
  return root;
}

JsonValue run_strategy_closed(const rwa::InstanceFactory& factory,
                              rwa::StrategyKind kind,
                              const rwa::StrategyScheduleConfig& config,
                              std::size_t base_trials, std::uint64_t seed,
                              const std::string& label) {
  const std::size_t trials = scaled_trials(base_trials);
  const rwa::StrategyAggregate aggregate =
      rwa::run_strategy_trials(factory, kind, config, trials, seed);

  obs::annotate("scenario", label);
  obs::annotate("strategy", rwa::to_string(kind));
  obs::set_metric("success_rate", aggregate.success_rate());
  obs::set_metric("failures", static_cast<double>(aggregate.failures));
  if (aggregate.blocking.count() > 0)
    obs::set_metric("blocking_mean", aggregate.blocking.mean());
  if (aggregate.rounds.count() > 0)
    obs::set_metric("rounds_mean", aggregate.rounds.mean());
  if (aggregate.makespan.count() > 0)
    obs::set_metric("makespan_mean", aggregate.makespan.mean());

  JsonValue root = result_root(label, "trials", seed);
  root.add_member("strategy", JsonValue::of(rwa::to_string(kind)));
  root.add_member("trials", num(aggregate.trials));
  root.add_member("failures", num(aggregate.failures));
  root.add_member("success_rate", JsonValue::of(aggregate.success_rate()));
  root.add_member("blocking", sample_json(aggregate.blocking));
  root.add_member("rounds", sample_json(aggregate.rounds));
  root.add_member("makespan", sample_json(aggregate.makespan));
  root.add_member("colors", sample_json(aggregate.colors));
  return root;
}

JsonValue run_engine(std::shared_ptr<const Graph> graph,
                     const EngineConfig& config, std::uint64_t seed,
                     const std::string& label) {
  obs::annotate("scenario", label);
  Engine engine(std::move(graph), config, seed);
  const EngineResult result = engine.run();

  JsonValue root = result_root(label, "engine", seed);
  root.add_member("offered", num(result.offered));
  root.add_member("admitted", num(result.admitted));
  root.add_member("blocked", num(result.blocked));
  root.add_member("expired", num(result.expired));
  root.add_member("conflict_readmits", num(result.conflict_readmits));
  root.add_member("duplicate_deliveries", num(result.duplicate_deliveries));
  root.add_member("rounds", num(result.rounds));
  root.add_member("peak_active", num(result.peak_active));
  root.add_member("blocking_probability",
                  JsonValue::of(result.blocking_probability));
  root.add_member("mean_setup_rounds", JsonValue::of(result.mean_setup_rounds));
  root.add_member("p50_setup_rounds", JsonValue::of(result.p50_setup_rounds));
  root.add_member("p99_setup_rounds", JsonValue::of(result.p99_setup_rounds));
  root.add_member("sim_duration", JsonValue::of(result.sim_duration));
  // p50/p99_setup_wall_ns and requests_per_s are wall-clock-dependent and
  // deliberately never enter the model result.
  return root;
}

JsonValue run_pass(const testlib::FuzzCase& fuzz, const std::string& label) {
  obs::annotate("scenario", label);
  const auto built = testlib::build_case(fuzz);
  const std::vector<std::uint8_t> held =
      held_mask(built->collection.graph().link_count(),
                built->config.bandwidth, fuzz.pinned);
  Simulator simulator(built->collection, built->config);
  simulator.set_held(held);
  const PassResult pass =
      simulator.run({fuzz.specs.data(), fuzz.specs.size()});

  JsonValue root = result_root(label, "pass", fuzz.seed);
  JsonValue metrics = JsonValue::make_object();
  const PassMetrics& m = pass.metrics;
  metrics.add_member("launched", num(m.launched));
  metrics.add_member("delivered", num(m.delivered));
  metrics.add_member("killed", num(m.killed));
  metrics.add_member("truncated", num(m.truncated));
  metrics.add_member("truncated_arrivals", num(m.truncated_arrivals));
  metrics.add_member("contentions", num(m.contentions));
  metrics.add_member("retunes", num(m.retunes));
  metrics.add_member("fault_kills", num(m.fault_kills));
  metrics.add_member("pinned_blocks", num(m.pinned_blocks));
  metrics.add_member("corrupted", num(m.corrupted));
  metrics.add_member("corrupted_arrivals", num(m.corrupted_arrivals));
  metrics.add_member("makespan", num(static_cast<std::uint64_t>(m.makespan)));
  metrics.add_member("worm_steps", num(m.worm_steps));
  metrics.add_member("link_busy_steps", num(m.link_busy_steps));
  root.add_member("metrics", std::move(metrics));

  JsonValue outcomes = JsonValue::make_array();
  for (const WormOutcome& worm : pass.worms) {
    JsonValue entry = JsonValue::make_array();
    entry.items.push_back(
        num(static_cast<std::uint64_t>(static_cast<std::uint8_t>(worm.status))));
    entry.items.push_back(num(worm.truncated ? 1 : 0));
    entry.items.push_back(num(worm.corrupted ? 1 : 0));
    entry.items.push_back(num(worm.fault_loss ? 1 : 0));
    entry.items.push_back(num(worm.pinned_loss ? 1 : 0));
    entry.items.push_back(JsonValue::of(static_cast<double>(worm.finish_time)));
    outcomes.items.push_back(std::move(entry));
  }
  root.add_member("outcomes", std::move(outcomes));
  return root;
}

}  // namespace opto::dsl::detail
