// Builds scenario worlds from a ScenarioConfig. One plan fixes what every
// shard of a run agrees on; one build turns it into a world (scheduler,
// network, protocols, traffic, failures, mobility, energy); one harvest and
// one merge turn worlds into a ScenarioResult. A serial run is the
// one-shard world, driven by SimInstance; the sharded engine builds K.
#pragma once

#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "app/cbr.hpp"
#include "app/flow_stats.hpp"
#include "core/backoff_policy.hpp"
#include "des/scheduler.hpp"
#include "geom/spatial_grid.hpp"
#include "geom/terrain.hpp"
#include "net/network.hpp"
#include "obs/trace.hpp"
#include "phy/failure.hpp"
#include "sim/mobility.hpp"
#include "sim/scenario.hpp"
#include "trace/path_trace.hpp"

namespace rrnet::sim {

using NodePairs = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

/// Everything every shard of a run must agree on, computed once from the
/// config's seed-derived rng forks.
struct WorldPlan {
  const ScenarioConfig& config;
  geom::Terrain terrain;
  phy::RadioParams radio;  ///< tx power calibrated to config.range_m
  std::vector<geom::Vec2> positions{};
  NodePairs pairs{};
  // Sharded runs (config.shards > 1) only:
  /// Owning shard per node: its initial strip, for the whole run. Every
  /// shard's ShardSpec views this one map.
  std::vector<std::uint32_t> owner{};
  /// Static positions: one immutable index every shard queries, so index
  /// memory is O(n) instead of O(n*K). Null under mobility, where each
  /// shard keeps a replica driven by its own replicated position updates.
  std::shared_ptr<const geom::SpatialGrid> shared_index{};
};

[[nodiscard]] WorldPlan plan_world(const ScenarioConfig& config);

/// One world: a whole serial run, or one shard of a sharded run. Built,
/// run, harvested and destroyed on one thread: its nodes allocate from that
/// thread's pools.
struct World {
  explicit World(const ScenarioConfig& scenario) : config(scenario) {}

  const ScenarioConfig& config;
  des::Scheduler scheduler;
  /// The flooding family's rebroadcast backoff policy, shared by the
  /// world's nodes (null for every other protocol).
  std::shared_ptr<const core::BackoffPolicy> flood_policy;
  std::unique_ptr<net::Network> network;
  app::FlowStats flows;
  std::vector<std::unique_ptr<app::CbrSource>> sources;
  /// Every shard runs the full failure and mobility schedules for ALL nodes
  /// from the same rng forks, so position grids and on/off states agree
  /// bitwise everywhere without any exchange. Only side effects on owned
  /// radios are shard-local (see FailureModel's owns() guards).
  std::unique_ptr<phy::FailureModel> failures;
  std::unique_ptr<RandomWaypoint> mobility;

  /// Attach the configured protocol and the flow sink to a node: the
  /// network's on_build hook, for every node it builds.
  void attach(net::Node& node);
  /// Start protocols, environment drivers and traffic, in that order.
  void start();
};

/// Build the world `shard` names: the default spec builds a serial world,
/// which takes its `positions` by move. A shard of a sharded run gets a
/// copy of plan.positions, or none when it queries plan.shared_index.
[[nodiscard]] std::unique_ptr<World> build_world(
    const WorldPlan& plan, phy::ShardSpec shard,
    std::vector<geom::Vec2> positions);

/// What one world reports at the end of a run (plain data: a shard's
/// outcome is read by the coordinator after its worker joins).
struct WorldOutcome {
  obs::MetricRegistry metrics;
  obs::Histogram backoff_slots;  ///< raw buckets; flattened after the merge
  std::vector<app::FlowStats::FlowEvent> flow_log;  ///< empty unless logged
  /// (node id, joules) for every owned node with an energy meter.
  std::vector<std::pair<std::uint32_t, double>> energy;
  std::uint64_t mac_tx = 0;
  std::uint64_t channel_tx = 0;
  std::uint64_t events_executed = 0;
};

/// Must run on the world's thread (the stats walk thread-local pool-backed
/// structures). Closes every energy meter at the scheduler's current time.
[[nodiscard]] WorldOutcome harvest_world(World& world);

/// The run's result from its worlds' outcomes, merged in shard order, and
/// its flow bookkeeping: energy is summed in node-id order and the backoff
/// histogram is flattened once, so K shards report what one world does.
[[nodiscard]] ScenarioResult assemble_result(
    const app::FlowStats& flows, std::span<const WorldOutcome> outcomes);

/// Per-run pool metrics. The calling thread's pools outlive runs, so a run
/// reports deltas from counters captured (and high-waters restarted) when
/// this is constructed, before the run builds anything. A run starts with
/// every earlier buffer released, so the deltas are deterministic per seed
/// however many runs the thread served before.
class PoolBaseline {
 public:
  PoolBaseline();
  /// Add the pool.* deltas of the constructing thread to `reg`.
  void add_deltas(obs::MetricRegistry& reg) const;

 private:
  std::uint64_t packet_allocs_ = 0;
  std::uint64_t packet_heap_allocs_ = 0;
  std::uint64_t object_allocs_ = 0;
  std::uint64_t object_heap_allocs_ = 0;
};

/// A serial run: the one-shard world, plus what only a serial run offers
/// (event tracer install, path tracing, run_until slices, live access).
class SimInstance {
 public:
  explicit SimInstance(const ScenarioConfig& config);
  ~SimInstance();
  SimInstance(const SimInstance&) = delete;
  SimInstance& operator=(const SimInstance&) = delete;

  /// Run to config.sim_end. May be called repeatedly with later horizons
  /// via run_until().
  void run();
  void run_until(des::Time t);

  /// The result so far; may be called repeatedly.
  [[nodiscard]] ScenarioResult result() const;

  [[nodiscard]] const ScenarioConfig& config() const noexcept { return config_; }
  [[nodiscard]] des::Scheduler& scheduler() noexcept {
    return world_->scheduler;
  }
  [[nodiscard]] net::Network& network() noexcept { return *world_->network; }
  [[nodiscard]] app::FlowStats& flows() noexcept { return world_->flows; }
  [[nodiscard]] const NodePairs& pairs() const noexcept { return plan_.pairs; }
  /// Null unless config.trace_paths.
  [[nodiscard]] trace::PathTrace* path_trace() noexcept { return trace_.get(); }
  /// Null unless config.trace_events.
  [[nodiscard]] obs::EventTracer* tracer() noexcept { return tracer_.get(); }
  /// Null unless config.failure_fraction > 0.
  [[nodiscard]] phy::FailureModel* failures() noexcept {
    return world_->failures.get();
  }
  /// Null unless config.mobility.
  [[nodiscard]] RandomWaypoint* mobility() noexcept {
    return world_->mobility.get();
  }
  [[nodiscard]] const geom::Terrain& terrain() const noexcept {
    return plan_.terrain;
  }

 private:
  ScenarioConfig config_;
  PoolBaseline pools_;
  WorldPlan plan_;
  std::unique_ptr<obs::EventTracer> tracer_;
  obs::EventTracer* prev_tracer_ = nullptr;
  std::unique_ptr<World> world_;
  std::unique_ptr<trace::PathTrace> trace_;
  bool started_ = false;
};

}  // namespace rrnet::sim
