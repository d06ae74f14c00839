#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <utility>

#include "opto/benchsupport/experiment.hpp"
#include "opto/engine/engine.hpp"
#include "opto/graph/fattree.hpp"
#include "opto/graph/mesh.hpp"
#include "opto/graph/ring.hpp"
#include "opto/par/parallel_for.hpp"
#include "opto/paths/workloads.hpp"
#include "opto/rng/rng.hpp"
#include "opto/rng/splitmix64.hpp"
#include "opto/rwa/schedule.hpp"
#include "trace.hpp"

namespace optobench {

namespace {

using Source = LayerNode::Source;

/// FNV-1a over 64-bit words.
class Digest {
 public:
  void add(std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (value >> (8 * byte)) & 0xff;
      hash_ *= 0x100000001b3ull;
    }
  }
  void add_double(double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    add(bits);
  }
  void add(const opto::SampleSet& set) {
    add(static_cast<std::uint64_t>(set.count()));
    for (const double sample : set.samples()) add_double(sample);
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/// Seed of call `index`.
std::uint64_t call_seed(std::uint64_t seed, std::uint64_t index) {
  return opto::splitmix64_once(
      opto::splitmix64_once(seed ^ 0x6f70746f62656e63ull) + index);
}

// --- mesh_trials ---------------------------------------------------------
// Theorem 1.6 (E7): Trial-and-Failure on random functions over a 32x32
// mesh, dimension-order paths, the paper's Δ schedule. Every trial builds
// its own mesh and paths, so one call exercises instance build, the
// trial fan-out, protocol rounds and the pass kernel.

constexpr std::uint32_t kMeshSide = 32;
constexpr std::uint64_t kMeshTrials = 32;
constexpr std::uint32_t kMeshWormLength = 16;
constexpr std::uint16_t kMeshBandwidth = 1;

opto::PathCollection build_mesh_instance(std::uint64_t seed) {
  auto topo = std::make_shared<opto::MeshTopology>(
      opto::make_mesh({kMeshSide, kMeshSide}));
  opto::Rng rng(seed);
  return opto::mesh_random_function(topo, rng);
}

/// Seed of the trial whose instance this thread built last: its schedule
/// factory runs next, on the same thread.
thread_local std::uint64_t t_trial_seed = 0;

class MeshTrials final : public Workload {
 public:
  explicit MeshTrials(std::uint64_t seed)
      : seed_(seed),
        schedule_(
            opto::paper_schedule_factory(kMeshWormLength, kMeshBandwidth)) {
    config_.bandwidth = kMeshBandwidth;
    config_.worm_length = kMeshWormLength;
    config_.max_rounds = 2000;
  }

  std::uint64_t cycle() const override { return 1; }
  bool fans_out() const override { return true; }
  std::uint64_t units(std::uint64_t) const override { return kMeshTrials; }
  const char* call_name(std::uint64_t) const override {
    return "benchsupport.run_trials";
  }
  std::vector<LayerNode> tree() const override {
    return {{"benchsupport.run_trials", Source::Call, -1},
            {"paths.build", Source::Span, 0},
            {"paths.stats", Source::Span, 0},
            {"protocol.run", Source::Phase, 0},
            {"sim.pass", Source::Phase, 3},
            {"sim.shard_pass", Source::Phase, 4}};
  }

  CallOutcome call(std::uint64_t index, SpanLog* spans) override {
    CallOutcome out;
    const std::uint64_t base = call_seed(seed_, index);
    std::atomic<std::uint64_t> links{0};
    opto::CollectionFactory factory = &build_mesh_instance;
    opto::ScheduleFactory traced_schedule;
    if (spans != nullptr) {
      factory = [spans, &links](std::uint64_t seed) {
        const std::uint64_t start = now_ns();
        opto::PathCollection collection = build_mesh_instance(seed);
        spans->child("paths.build", start, now_ns(), seed);
        t_trial_seed = seed;
        std::uint64_t total = 0;
        for (const opto::Path& path : collection.paths()) total += path.length();
        links.fetch_add(total, std::memory_order_relaxed);
        return collection;
      };
      traced_schedule = [spans, this](const opto::PathCollection& collection) {
        const std::uint64_t start = now_ns();
        auto schedule = schedule_(collection);
        spans->child("paths.stats", start, now_ns(), t_trial_seed);
        return schedule;
      };
    }
    const opto::TrialAggregate agg =
        opto::run_trials(factory, spans != nullptr ? traced_schedule : schedule_,
                         config_, kMeshTrials, base);

    Digest digest;
    digest.add(static_cast<std::uint64_t>(agg.trials));
    digest.add(static_cast<std::uint64_t>(agg.failures));
    digest.add(agg.duplicates);
    digest.add(agg.ack_drops);
    for (const opto::SampleSet* set :
         {&agg.rounds, &agg.charged_time, &agg.actual_time,
          &agg.path_congestion, &agg.dilation, &agg.fault_losses,
          &agg.contention_losses})
      digest.add(*set);
    out.digest = digest.value();
    out.inputs = base;
    out.links = links.load(std::memory_order_relaxed);

    // Every trial is accounted for, and every trial routes everything.
    if (agg.trials != kMeshTrials ||
        agg.rounds.count() + agg.failures != kMeshTrials) {
      out.failed = kMeshTrials;
      out.problem = "mesh_trials: trials not all accounted for";
    } else if (agg.failures != 0) {
      out.failed = agg.failures;
      out.problem = "mesh_trials: a trial hit max_rounds";
    }
    return out;
  }

 private:
  std::uint64_t seed_;
  opto::ProtocolConfig config_;
  opto::ScheduleFactory schedule_;
};

// --- stream_ring ---------------------------------------------------------
// E17: open Poisson arrivals on ring-8 (B=4) served by rolling protocol
// batches. One call runs kStreamEngines independent Engines (construction
// plus run()) on the library's pool; calls alternate no conversion / full
// conversion at the same seeds, as E17 does. No instance build: per-pass
// and per-tick fixed costs dominate. A single engine per call would leave
// three of four threads idle and ties the figures to the speed of one
// core; on a shared host that swung the per-run throughput by ±20%.

constexpr std::uint64_t kStreamEngines = 4;
constexpr std::uint64_t kStreamArrivals = 40000;  // per engine
constexpr std::uint64_t kStreamWarmup = kStreamArrivals / 10;

class StreamRing final : public Workload {
 public:
  explicit StreamRing(std::uint64_t seed)
      : seed_(seed),
        ring_(std::make_shared<const opto::Graph>(opto::make_ring(8))) {
    config_.protocol.bandwidth = 4;
    config_.traffic.process = opto::ArrivalProcess::Poisson;
    config_.traffic.rate = 32.0;
    config_.round_interval = 0.02;
    config_.fit = opto::WavelengthFit::FirstFit;
    config_.arrivals = kStreamArrivals;
    config_.warmup = kStreamWarmup;
  }

  std::uint64_t cycle() const override { return 2; }
  bool fans_out() const override { return true; }
  std::uint64_t units(std::uint64_t) const override {
    return kStreamEngines * kStreamArrivals;
  }
  const char* call_name(std::uint64_t) const override { return "engine.call"; }
  std::vector<LayerNode> tree() const override {
    return {{"engine.call", Source::Call, -1},
            {"engine.build", Source::Span, 0},
            {"engine.run", Source::Span, 0},
            {"sim.pass", Source::Phase, 2},
            {"sim.shard_pass", Source::Phase, 3}};
  }

  CallOutcome call(std::uint64_t index, SpanLog* spans) override {
    const bool convert = index % 2 == 1;
    std::array<std::uint64_t, kStreamEngines> seeds{};
    for (std::uint64_t e = 0; e < kStreamEngines; ++e)
      seeds[e] = call_seed(seed_, (index / 2) * kStreamEngines + e);
    std::array<opto::EngineResult, kStreamEngines> results{};
    opto::parallel_for(0, kStreamEngines, [&](std::size_t e) {
      opto::EngineConfig config = config_;
      config.protocol.conversion =
          convert ? opto::ConversionMode::Full : opto::ConversionMode::None;
      const std::uint64_t start = spans != nullptr ? now_ns() : 0;
      opto::Engine engine(ring_, std::move(config), seeds[e]);
      const std::uint64_t built = spans != nullptr ? now_ns() : 0;
      results[e] = engine.run();
      if (spans != nullptr) {
        spans->child("engine.build", start, built, seeds[e]);
        spans->child("engine.run", built, now_ns(), seeds[e]);
      }
    });

    CallOutcome out;
    Digest digest;
    Digest inputs;
    inputs.add(static_cast<std::uint64_t>(convert));
    for (std::uint64_t e = 0; e < kStreamEngines; ++e) {
      const opto::EngineResult& result = results[e];
      digest.add(result.offered);
      digest.add(result.admitted);
      digest.add(result.blocked);
      digest.add(result.expired);
      digest.add(result.rounds);
      digest.add_double(result.blocking_probability);
      inputs.add(seeds[e]);
      out.engine_rounds += result.rounds;
      out.engine_readmits += result.conflict_readmits;
      out.engine_peak_active =
          std::max(out.engine_peak_active, result.peak_active);

      const char* problem = nullptr;
      if (result.offered != kStreamArrivals - kStreamWarmup)
        problem = "stream_ring: offered != measured arrivals";
      else if (result.offered != result.admitted + result.blocked)
        problem = "stream_ring: offered != admitted + blocked";
      else if (result.expired > result.blocked)
        problem = "stream_ring: expired > blocked";
      else if (result.rounds == 0)
        problem = "stream_ring: no protocol rounds";
      if (problem != nullptr) {
        out.failed += kStreamArrivals;
        if (out.problem.empty()) out.problem = problem;
      }
    }
    out.digest = digest.value();
    out.inputs = inputs.value();
    return out;
  }

 private:
  std::uint64_t seed_;
  std::shared_ptr<const opto::Graph> ring_;
  opto::EngineConfig config_;
};

// --- dc_rwa --------------------------------------------------------------
// E19: the static RWA zoo on a radix-8 fat tree (208 nodes), random
// permutations, B=2, k=3, split 2, L=4. Calls cycle through every
// StrategyKind; KSP and assignment do nearly all the work, and the
// replayed passes are collision-free.

constexpr std::uint32_t kFatTreeRadix = 8;
/// Instances per call, in StrategyKind order (first_fit, least_used,
/// random_fit, multipath, valiant). Valiant costs ~25x the others per
/// instance; with these counts Valiant takes under half of the workload's
/// wall time on a 4-thread pool, and every call has enough instances per
/// pool thread that one slow instance does not set the call's time.
constexpr std::array<std::uint64_t, 5> kRwaInstances = {48, 48, 48, 48, 8};

class DcRwa final : public Workload {
 public:
  explicit DcRwa(std::uint64_t seed)
      : seed_(seed), kinds_(opto::rwa::all_strategy_kinds()) {
    opto::FatTreeTopology fat = opto::make_fat_tree(kFatTreeRadix);
    graph_ = std::make_shared<const opto::Graph>(std::move(fat.graph));
    for (const opto::rwa::StrategyKind kind : kinds_)
      names_.push_back(std::string("rwa.") + opto::rwa::to_string(kind));
    config_.rwa.bandwidth = 2;
    config_.rwa.candidates = 3;
    config_.rwa.split_ways = 2;
    config_.worm_length = 4;
    config_.max_rounds = 64;
  }

  std::uint64_t cycle() const override { return kinds_.size(); }
  bool fans_out() const override { return true; }
  std::uint64_t units(std::uint64_t index) const override {
    return kRwaInstances[index % kinds_.size()];
  }
  const char* call_name(std::uint64_t index) const override {
    return names_[index % kinds_.size()].c_str();
  }
  std::vector<LayerNode> tree() const override {
    return {{"rwa.run_strategy_trials", Source::Call, -1},
            {"paths.build", Source::Span, 0},
            {"sim.pass", Source::Phase, 0},
            {"sim.shard_pass", Source::Phase, 2}};
  }

  CallOutcome call(std::uint64_t index, SpanLog* spans) override {
    CallOutcome out;
    const std::size_t kind_index = index % kinds_.size();
    const opto::rwa::StrategyKind kind = kinds_[kind_index];
    const std::uint64_t count = kRwaInstances[kind_index];
    const std::uint64_t base = call_seed(seed_, index / kinds_.size());

    const opto::rwa::InstanceFactory factory = [this,
                                                spans](std::uint64_t seed) {
      const std::uint64_t start = spans != nullptr ? now_ns() : 0;
      opto::Rng rng(seed);
      const auto perm = opto::random_permutation(graph_->node_count(), rng);
      std::vector<opto::rwa::RwaRequest> requests;
      requests.reserve(perm.size());
      for (std::uint32_t i = 0; i < perm.size(); ++i)
        requests.push_back(opto::rwa::RwaRequest{i, perm[i]});
      if (spans != nullptr) spans->child("paths.build", start, now_ns(), seed);
      return std::make_pair(graph_, std::move(requests));
    };
    const opto::rwa::StrategyAggregate agg =
        opto::rwa::run_strategy_trials(factory, kind, config_, count, base);

    Digest digest;
    digest.add(static_cast<std::uint64_t>(kind_index));
    digest.add(static_cast<std::uint64_t>(agg.trials));
    digest.add(static_cast<std::uint64_t>(agg.failures));
    for (const opto::SampleSet* set :
         {&agg.blocking, &agg.rounds, &agg.makespan, &agg.colors})
      digest.add(*set);
    out.digest = digest.value();
    Digest inputs;
    inputs.add(base);
    inputs.add(static_cast<std::uint64_t>(kind_index));
    out.inputs = inputs.value();

    if (agg.trials != count) {
      out.failed = count;
      out.problem = "dc_rwa: instances not all accounted for";
    } else if (agg.failures != 0) {
      out.failed = agg.failures;
      out.problem = "dc_rwa: success_rate < 1";
    }
    return out;
  }

 private:
  std::uint64_t seed_;
  std::vector<opto::rwa::StrategyKind> kinds_;
  std::vector<std::string> names_;
  std::shared_ptr<const opto::Graph> graph_;
  opto::rwa::StrategyScheduleConfig config_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"mesh_trials", "stream_ring",
                                              "dc_rwa"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "mesh_trials") return std::make_unique<MeshTrials>(seed);
  if (name == "stream_ring") return std::make_unique<StreamRing>(seed);
  if (name == "dc_rwa") return std::make_unique<DcRwa>(seed);
  return nullptr;
}

}  // namespace optobench
