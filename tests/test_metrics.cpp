#include <gtest/gtest.h>

#include "opto/sim/metrics.hpp"

namespace opto {
namespace {

TEST(Metrics, UtilizationFormula) {
  PassMetrics metrics;
  metrics.makespan = 9;  // 10 steps
  metrics.link_busy_steps = 40;
  // 8 links × 2 wavelengths × 10 steps = 160 slots.
  EXPECT_DOUBLE_EQ(metrics.utilization(8, 2), 0.25);
}

TEST(Metrics, UtilizationDegenerateInputs) {
  PassMetrics metrics;
  EXPECT_DOUBLE_EQ(metrics.utilization(0, 2), 0.0);
  EXPECT_DOUBLE_EQ(metrics.utilization(8, 0), 0.0);
  metrics.makespan = 0;
  metrics.link_busy_steps = 4;
  EXPECT_DOUBLE_EQ(metrics.utilization(4, 1), 1.0);
}

}  // namespace
}  // namespace opto
