#include "opto/sim/metrics.hpp"

namespace opto {

double PassMetrics::utilization(std::uint64_t link_count,
                                std::uint16_t bandwidth) const {
  if (link_count == 0 || bandwidth == 0 || makespan < 0) return 0.0;
  const double slots = static_cast<double>(link_count) * bandwidth *
                       static_cast<double>(makespan + 1);
  return slots > 0 ? static_cast<double>(link_busy_steps) / slots : 0.0;
}

}  // namespace opto
