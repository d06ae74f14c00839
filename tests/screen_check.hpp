// Contention-screen check shared by the simulator tests. An untraced,
// fault-free pass goes through the screen, which settles overlap-free
// worms in closed form; a traced pass of the same specs is stepped whole.
// The two must agree bit for bit — outcomes, every PassMetrics field but
// wall time, and wavelength histories — and the screened run must agree
// with the reference engine.
#pragma once

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "opto/obs/obs.hpp"
#include "opto/paths/path_collection.hpp"
#include "opto/sim/reference.hpp"
#include "opto/sim/simulator.hpp"

namespace opto::screen_check {

struct Screened {
  PassResult result;           ///< the untraced (screened) run
  std::uint64_t settled = 0;   ///< worms the screen delivered in closed form
  std::uint64_t contended = 0; ///< worms it left to the step loop
};

inline std::uint64_t counter(const std::string& name) {
  for (const obs::CounterSnapshot& snapshot : obs::counters())
    if (snapshot.name == name) return snapshot.value;
  return 0;
}

inline Screened run(const PathCollection& collection, SimConfig config,
                    const std::vector<LaunchSpec>& specs,
                    std::span<const PinnedSlot> held = {}) {
  const std::vector<std::uint8_t> mask =
      held.empty() ? std::vector<std::uint8_t>{}
                   : held_mask(collection.graph().link_count(),
                               config.bandwidth, held);
  config.faults = nullptr;

  config.record_trace = true;
  Simulator stepped_sim(collection, config);
  stepped_sim.set_held(mask);
  const PassResult stepped = stepped_sim.run(specs);

  config.record_trace = false;
  Simulator screened_sim(collection, config);
  screened_sim.set_held(mask);
  const bool observing = obs::enabled();
  obs::set_enabled(true);
  obs::reset();
  Screened out{screened_sim.run(specs)};
  out.settled = counter("sim.screened_worms");
  out.contended = counter("sim.contended_worms");
  obs::set_enabled(observing);
  EXPECT_EQ(out.settled + out.contended, specs.size());

  const PassResult& a = out.result;
  EXPECT_EQ(a.worms.size(), stepped.worms.size());
  if (a.worms.size() != stepped.worms.size()) return out;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    SCOPED_TRACE("worm " + std::to_string(i));
    const WormOutcome& x = a.worms[i];
    const WormOutcome& y = stepped.worms[i];
    EXPECT_EQ(x.status, y.status);
    EXPECT_EQ(x.truncated, y.truncated);
    EXPECT_EQ(x.corrupted, y.corrupted);
    EXPECT_EQ(x.fault_loss, y.fault_loss);
    EXPECT_EQ(x.pinned_loss, y.pinned_loss);
    EXPECT_EQ(x.finish_time, y.finish_time);
    EXPECT_EQ(x.blocked_at_link, y.blocked_at_link);
    EXPECT_EQ(x.blocked_by, y.blocked_by);
  }
  const PassMetrics& m = a.metrics;
  const PassMetrics& n = stepped.metrics;
  EXPECT_EQ(m.launched, n.launched);
  EXPECT_EQ(m.delivered, n.delivered);
  EXPECT_EQ(m.killed, n.killed);
  EXPECT_EQ(m.truncated, n.truncated);
  EXPECT_EQ(m.truncated_arrivals, n.truncated_arrivals);
  EXPECT_EQ(m.contentions, n.contentions);
  EXPECT_EQ(m.retunes, n.retunes);
  EXPECT_EQ(m.fault_kills, n.fault_kills);
  EXPECT_EQ(m.pinned_blocks, n.pinned_blocks);
  EXPECT_EQ(m.corrupted, n.corrupted);
  EXPECT_EQ(m.corrupted_arrivals, n.corrupted_arrivals);
  EXPECT_EQ(m.makespan, n.makespan);
  EXPECT_EQ(m.worm_steps, n.worm_steps);
  EXPECT_EQ(m.link_busy_steps, n.link_busy_steps);
  EXPECT_EQ(m.steps, n.steps);
  EXPECT_EQ(m.registry_probes, n.registry_probes);
  EXPECT_EQ(m.registry_hits, n.registry_hits);
  EXPECT_EQ(m.peak_inflight, n.peak_inflight);
  EXPECT_EQ(a.wavelength_offsets, stepped.wavelength_offsets);
  EXPECT_EQ(a.wavelengths, stepped.wavelengths);

  const PassResult ref = reference_run(collection, config, specs, held);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    SCOPED_TRACE("reference, worm " + std::to_string(i));
    EXPECT_EQ(a.worms[i].status, ref.worms[i].status);
    EXPECT_EQ(a.worms[i].finish_time, ref.worms[i].finish_time);
    EXPECT_EQ(a.worms[i].truncated, ref.worms[i].truncated);
    EXPECT_EQ(a.worms[i].pinned_loss, ref.worms[i].pinned_loss);
    EXPECT_EQ(a.worms[i].blocked_by, ref.worms[i].blocked_by);
    EXPECT_EQ(a.worms[i].blocked_at_link, ref.worms[i].blocked_at_link);
  }
  EXPECT_EQ(m.delivered, ref.metrics.delivered);
  EXPECT_EQ(m.killed, ref.metrics.killed);
  EXPECT_EQ(m.pinned_blocks, ref.metrics.pinned_blocks);
  EXPECT_EQ(m.contentions, ref.metrics.contentions);
  EXPECT_EQ(m.retunes, ref.metrics.retunes);
  EXPECT_EQ(m.worm_steps, ref.metrics.worm_steps);
  EXPECT_EQ(m.makespan, ref.metrics.makespan);
  return out;
}

}  // namespace opto::screen_check
