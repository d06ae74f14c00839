// A naive streaming engine, kept as an independent reference for
// opto::Engine (engine/engine.hpp). It replays the same event loop
// (departures ≤ round < arrivals), the same RNG streams (traffic pairs,
// holding times, random-fit picks, arrival gaps, and the counter-based
// round draws), and the same loss-call-cleared admission, but runs its
// own setup round. Every member draws its start delay and rank, even
// when it launches alone. The wavelength is picked by scanning the held
// bytes λ by λ. Each pass runs through reference_run (sim/reference.hpp)
// with the held channels as pinned slots, under ideal acks. Nothing of
// Engine, ProtocolSession or Simulator runs here, so their shortcuts (the
// lone-worm closed form, unranked lone worms, the held words the chooser
// reads) face a plain model. Slow on purpose; test code only.
#pragma once

#include <cstdint>
#include <memory>

#include "opto/engine/engine.hpp"

namespace opto::testlib {

/// Runs the reference engine on `graph` (connected, ≥ 2 nodes) under
/// `config`, which must use ideal acks, no fault injection, and
/// RandomPermutation ranks. Every deterministic EngineResult field is
/// comparable with Engine(graph, config, seed).run(); the wall-clock
/// fields stay 0.
EngineResult reference_engine(std::shared_ptr<const Graph> graph,
                              const EngineConfig& config, std::uint64_t seed);

}  // namespace opto::testlib
