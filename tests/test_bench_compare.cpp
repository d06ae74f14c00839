// obs/compare: metric directions, noise floor, regression/blowup
// thresholds, warn-only semantics, and the determinism normalization —
// the exact logic the CI perf gate trusts.
#include <gtest/gtest.h>

#include <sstream>

#include "opto/obs/bench_record.hpp"
#include "opto/obs/compare.hpp"

namespace opto::obs {
namespace {

/// Builds a minimal single BenchRecord document. `wall_ns` doubles as the
/// noise-floor datum (metrics.measured_wall_ns).
JsonValue record(double steps_per_s, double wall_ns,
                 double allocs_per_pass = 10.0) {
  JsonValue metrics = JsonValue::make_object();
  metrics.add_member("worm_steps_per_s", JsonValue::of(steps_per_s));
  metrics.add_member("measured_wall_ns", JsonValue::of(wall_ns));
  metrics.add_member("allocs_per_pass", JsonValue::of(allocs_per_pass));
  metrics.add_member("registry_hit_rate", JsonValue::of(0.5));

  JsonValue doc = JsonValue::make_object();
  doc.add_member("schema", JsonValue::of(kBenchRecordSchema));
  doc.add_member("schema_version",
                 JsonValue::of(double{kBenchRecordSchemaVersion}));
  doc.add_member("label", JsonValue::of("unit"));
  doc.add_member("metrics", std::move(metrics));
  return doc;
}

const MetricDelta* find_delta(const CompareReport& report,
                              const std::string& metric) {
  for (const auto& delta : report.deltas)
    if (delta.metric == metric) return &delta;
  return nullptr;
}

// Above the default 5e7 ns floor so timing metrics are not skipped.
constexpr double kLongRun = 1e8;

TEST(MetricDirection, ByName) {
  EXPECT_EQ(metric_direction("worm_steps_per_s"), Direction::HigherBetter);
  EXPECT_EQ(metric_direction("wall_s"), Direction::LowerBetter);
  EXPECT_EQ(metric_direction("measured_wall_ns"), Direction::LowerBetter);
  EXPECT_EQ(metric_direction("allocs_per_pass"), Direction::LowerBetter);
  EXPECT_EQ(metric_direction("registry_hit_rate"), Direction::Neutral);
}

TEST(BenchCompare, ImprovementPasses) {
  const auto report = compare_records(record(1e6, kLongRun),
                                      record(2e6, kLongRun * 0.5), {});
  EXPECT_FALSE(report.fail);
  const auto* delta = find_delta(report, "worm_steps_per_s");
  ASSERT_NE(delta, nullptr);
  EXPECT_EQ(delta->status, MetricStatus::Improved);
  EXPECT_DOUBLE_EQ(delta->ratio, 2.0);
  // Lower-better metric: the oriented ratio is still > 1 on improvement.
  const auto* wall = find_delta(report, "measured_wall_ns");
  ASSERT_NE(wall, nullptr);
  EXPECT_EQ(wall->status, MetricStatus::Improved);
  EXPECT_DOUBLE_EQ(wall->ratio, 2.0);
}

TEST(BenchCompare, WithinNoisePasses) {
  // 5% off with a 10% threshold: unchanged.
  const auto report =
      compare_records(record(1e6, kLongRun), record(0.95e6, kLongRun), {});
  EXPECT_FALSE(report.fail);
  EXPECT_EQ(find_delta(report, "worm_steps_per_s")->status,
            MetricStatus::Unchanged);
}

TEST(BenchCompare, RegressionFails) {
  const auto report =
      compare_records(record(1e6, kLongRun), record(0.7e6, kLongRun), {});
  EXPECT_TRUE(report.fail);
  EXPECT_EQ(report.regressions, 1u);
  EXPECT_EQ(find_delta(report, "worm_steps_per_s")->status,
            MetricStatus::Regressed);
}

TEST(BenchCompare, ThresholdIsConfigurable) {
  CompareOptions loose;
  loose.threshold = 0.5;
  EXPECT_FALSE(
      compare_records(record(1e6, kLongRun), record(0.7e6, kLongRun), loose)
          .fail);
}

TEST(BenchCompare, BelowNoiseFloorSkipsTimingMetrics) {
  // 4x slower — but the runs are far below the floor, so timing metrics
  // are skipped and nothing gates. Count metrics still compare.
  const auto report =
      compare_records(record(1e6, 1e5, 10.0), record(0.25e6, 4e5, 10.0), {});
  EXPECT_FALSE(report.fail);
  EXPECT_EQ(find_delta(report, "worm_steps_per_s")->status,
            MetricStatus::SkippedNoise);
  EXPECT_EQ(find_delta(report, "measured_wall_ns")->status,
            MetricStatus::SkippedNoise);
  EXPECT_EQ(find_delta(report, "allocs_per_pass")->status,
            MetricStatus::Unchanged);
}

TEST(BenchCompare, AllocRegressionGatesEvenUnderNoiseFloor) {
  // allocs_per_pass is count-based: it gates regardless of run length.
  const auto report =
      compare_records(record(1e6, 1e5, 10.0), record(1e6, 1e5, 20.0), {});
  EXPECT_TRUE(report.fail);
  EXPECT_EQ(find_delta(report, "allocs_per_pass")->status,
            MetricStatus::Regressed);
}

TEST(BenchCompare, NeutralMetricsNeverGate) {
  auto base = record(1e6, kLongRun);
  auto cur = record(1e6, kLongRun);
  // registry_hit_rate halves — informational only.
  for (auto& [key, value] : cur.members)
    if (key == "metrics")
      for (auto& [name, metric] : value.members)
        if (name == "registry_hit_rate") metric.number = 0.25;
  const auto report = compare_records(base, cur, {});
  EXPECT_FALSE(report.fail);
  EXPECT_EQ(find_delta(report, "registry_hit_rate")->status,
            MetricStatus::Neutral);
}

TEST(BenchCompare, MissingMetricFailsStrictPassesWarnOnly) {
  auto base = record(1e6, kLongRun);
  auto cur = record(1e6, kLongRun);
  // Drop worm_steps_per_s from the current record.
  for (auto& [key, value] : cur.members)
    if (key == "metrics")
      std::erase_if(value.members,
                    [](const auto& member) {
                      return member.first == "worm_steps_per_s";
                    });
  // find_delta points into the report, so the report must outlive it.
  const auto report = compare_records(base, cur, {});
  EXPECT_TRUE(report.fail);
  const auto* delta = find_delta(report, "worm_steps_per_s");
  ASSERT_NE(delta, nullptr);
  EXPECT_EQ(delta->status, MetricStatus::MissingCurrent);

  CompareOptions warn;
  warn.warn_only = true;
  EXPECT_FALSE(compare_records(base, cur, warn).fail);
}

TEST(BenchCompare, NewMetricIsInformational) {
  auto base = record(1e6, kLongRun);
  auto cur = record(1e6, kLongRun);
  for (auto& [key, value] : cur.members)
    if (key == "metrics")
      value.add_member("brand_new_per_s", JsonValue::of(5.0));
  const auto report = compare_records(base, cur, {});
  EXPECT_FALSE(report.fail);
  EXPECT_EQ(find_delta(report, "brand_new_per_s")->status,
            MetricStatus::MissingBaseline);
}

TEST(BenchCompare, BlowupFailsEvenWarnOnly) {
  CompareOptions warn;
  warn.warn_only = true;
  // 4x regression > default 3x blowup factor.
  const auto report =
      compare_records(record(4e6, kLongRun), record(1e6, kLongRun), warn);
  EXPECT_TRUE(report.fail);
  EXPECT_EQ(report.blowups, 1u);
  EXPECT_EQ(find_delta(report, "worm_steps_per_s")->status,
            MetricStatus::Blowup);
}

TEST(BenchCompare, SuiteMatchesRecordsByLabel) {
  auto a0 = record(1e6, kLongRun);
  auto b0 = record(1e6, kLongRun);
  auto a1 = record(1e6, kLongRun);
  auto dropped = record(1e6, kLongRun);
  for (auto& [key, value] : a0.members)
    if (key == "label") value.text = "bench-a";
  for (auto& [key, value] : a1.members)
    if (key == "label") value.text = "bench-a";
  for (auto& [key, value] : b0.members)
    if (key == "label") value.text = "bench-b";
  for (auto& [key, value] : dropped.members)
    if (key == "label") value.text = "bench-gone";

  std::vector<JsonValue> base_records;
  base_records.push_back(a0);
  base_records.push_back(b0);
  base_records.push_back(dropped);
  std::vector<JsonValue> cur_records;
  cur_records.push_back(a1);
  cur_records.push_back(b0);
  const auto baseline = make_suite("s", 1.0, std::move(base_records));
  const auto current = make_suite("s", 1.0, std::move(cur_records));
  EXPECT_EQ(baseline.string_at("schema"), kBenchSuiteSchema);

  const auto report = compare_records(baseline, current, {});
  // bench-gone vanished: that is a hard finding even though every present
  // metric matched.
  ASSERT_EQ(report.missing_records.size(), 1u);
  EXPECT_EQ(report.missing_records[0], "bench-gone");
  EXPECT_TRUE(report.fail);
}

TEST(BenchCompare, PrintReportSummarizes) {
  const auto report =
      compare_records(record(1e6, kLongRun), record(0.7e6, kLongRun), {});
  std::ostringstream out;
  print_report(out, report, {});
  EXPECT_NE(out.str().find("RESULT: FAIL"), std::string::npos);
  EXPECT_NE(out.str().find("worm_steps_per_s"), std::string::npos);
}

TEST(Normalize, StripsTimingsAndSortsKeys) {
  const auto a = record(1e6, kLongRun);
  const auto b = record(9e6, kLongRun * 7);  // wildly different timings
  const std::string na = normalize_for_determinism(a);
  EXPECT_EQ(na, normalize_for_determinism(b));
  EXPECT_EQ(na.find("wall"), std::string::npos);
  EXPECT_EQ(na.find("per_s"), std::string::npos);
  EXPECT_NE(na.find("\"label\":\"unit\""), std::string::npos);
}

}  // namespace
}  // namespace opto::obs
