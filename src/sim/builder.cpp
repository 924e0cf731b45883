#include "sim/builder.hpp"

#include <algorithm>

#include "geom/placement.hpp"
#include "geom/shard_partition.hpp"
#include "net/packet_buffer.hpp"
#include "obs/profiler.hpp"
#include "proto/flooding.hpp"
#include "sim/topology.hpp"
#include "util/contracts.hpp"
#include "util/pool.hpp"

namespace rrnet::sim {

namespace {

/// Walk the calling thread's object size-class pools.
template <typename Fn>
void for_each_object_pool(Fn&& fn) {
  for (std::size_t bytes = util::kSizeClassStep; bytes <= util::kSizeClassMax;
       bytes += util::kSizeClassStep) {
    fn(util::sized_pool(bytes));
  }
}

proto::SsafConfig ssaf_config(const ScenarioConfig& config) {
  proto::SsafConfig sc = config.ssaf;
  sc.ttl = config.flood_ttl;
  return sc;
}

std::unique_ptr<phy::PropagationModel> make_propagation(
    const ScenarioConfig& config) {
  const double f = config.radio.frequency_hz;
  switch (config.propagation) {
    case PropagationKind::FreeSpace:
      return std::make_unique<phy::FreeSpace>(f);
    case PropagationKind::TwoRay:
      return std::make_unique<phy::TwoRayGround>(f);
    case PropagationKind::LogDistance:
      return std::make_unique<phy::LogDistance>(config.pathloss_exponent, 1.0, f);
    case PropagationKind::Rayleigh:
      return std::make_unique<phy::RayleighFading>(
          std::make_unique<phy::FreeSpace>(f));
    case PropagationKind::Shadowing:
      return std::make_unique<phy::LogNormalShadowing>(
          std::make_unique<phy::FreeSpace>(f), config.shadowing_sigma_db);
  }
  return std::make_unique<phy::FreeSpace>(f);
}

/// The rebroadcast backoff policy of the configured flooding-family
/// protocol (null for every other protocol). Immutable: one per world is
/// shared by all of its nodes.
std::shared_ptr<const core::BackoffPolicy> make_flood_policy(
    const ScenarioConfig& config) {
  switch (config.protocol) {
    case ProtocolKind::Counter1Flooding:
    case ProtocolKind::BlindFlooding:
      return std::make_shared<const core::UniformBackoff>(config.flood_lambda);
    case ProtocolKind::Ssaf:
      return proto::make_ssaf_policy(ssaf_config(config));
    default:
      return nullptr;
  }
}

void attach_protocol(
    const ScenarioConfig& config, net::Node& node,
    const std::shared_ptr<const core::BackoffPolicy>& flood_policy) {
  switch (config.protocol) {
    case ProtocolKind::Counter1Flooding:
    case ProtocolKind::BlindFlooding: {
      proto::FloodingConfig fc;
      fc.lambda = config.flood_lambda;
      fc.ttl = config.flood_ttl;
      fc.blind = config.protocol == ProtocolKind::BlindFlooding;
      node.set_protocol(
          std::make_unique<proto::FloodingProtocol>(node, fc, flood_policy));
      return;
    }
    case ProtocolKind::Ssaf:
      node.set_protocol(std::make_unique<proto::SsafProtocol>(
          node, ssaf_config(config), flood_policy));
      return;
    case ProtocolKind::Routeless:
      node.set_protocol(
          std::make_unique<proto::RoutelessProtocol>(node, config.routeless));
      return;
    case ProtocolKind::Aodv:
      node.set_protocol(
          std::make_unique<proto::AodvProtocol>(node, config.aodv));
      return;
    case ProtocolKind::Gradient:
      node.set_protocol(
          std::make_unique<proto::GradientProtocol>(node, config.gradient));
      return;
    case ProtocolKind::Dsdv:
      node.set_protocol(
          std::make_unique<proto::DsdvProtocol>(node, config.dsdv));
      return;
    case ProtocolKind::Dsr:
      node.set_protocol(
          std::make_unique<proto::DsrProtocol>(node, config.dsr));
      return;
  }
  RRNET_ASSERT(false);
}

/// Reserve the calling thread's size-class pools for `nodes` node stacks
/// (node + transceiver and its signal map + MAC + the configured protocol),
/// so building them is never a pool-exhaustion heap fallback. Only the
/// shortfall beyond what the thread's pools already hold is carved, and a
/// carve reserves address space without touching it.
void reserve_node_pools(const ScenarioConfig& config, std::size_t nodes) {
  if (nodes == 0) return;
  // One entry per size class: distinct types can share a class, so counts
  // accumulate before any pool is grown.
  std::size_t need[util::kSizeClassMax / util::kSizeClassStep] = {};
  const auto note = [&](std::size_t bytes) {
    if (bytes == 0 || bytes > util::kSizeClassMax) return;
    need[(bytes + util::kSizeClassStep - 1) / util::kSizeClassStep - 1] +=
        nodes;
  };
  note(sizeof(net::Node));
  note(sizeof(phy::Transceiver));
  note(sizeof(mac::CsmaMac));
  switch (config.protocol) {
    case ProtocolKind::Counter1Flooding:
    case ProtocolKind::BlindFlooding:
      note(sizeof(proto::FloodingProtocol));
      break;
    case ProtocolKind::Ssaf:
      note(sizeof(proto::SsafProtocol));
      break;
    case ProtocolKind::Routeless:
      note(sizeof(proto::RoutelessProtocol));
      break;
    case ProtocolKind::Aodv:
      note(sizeof(proto::AodvProtocol));
      break;
    case ProtocolKind::Gradient:
      note(sizeof(proto::GradientProtocol));
      break;
    case ProtocolKind::Dsdv:
      note(sizeof(proto::DsdvProtocol));
      break;
    case ProtocolKind::Dsr:
      note(sizeof(proto::DsrProtocol));
      break;
  }
  for (std::size_t i = 0; i < util::kSizeClassMax / util::kSizeClassStep; ++i) {
    if (need[i] == 0) continue;
    const std::size_t rounded = (i + 1) * util::kSizeClassStep;
    util::PayloadPool& pool = util::sized_pool(rounded);
    pool.ensure_capacity(pool.in_use() + need[i], rounded);
  }
  phy::SignalMap::reserve_blocks(nodes);
}

}  // namespace

WorldPlan plan_world(const ScenarioConfig& config) {
  RRNET_EXPECTS(config.nodes >= 2);
  WorldPlan plan{.config = config,
                 .terrain = geom::Terrain(config.width_m, config.height_m),
                 .radio = config.radio};
  const auto model = make_propagation(config);
  // Calibrate tx power so the nominal range is exactly config.range_m.
  plan.radio.tx_power_dbm = phy::tx_power_for_range(
      *model, config.range_m, plan.radio.rx_threshold_dbm);

  const des::Rng root(config.seed);
  des::Rng placement_rng = root.fork("placement");
  plan.positions =
      geom::place_uniform(plan.terrain, config.nodes, placement_rng);

  if (!config.explicit_pairs.empty()) {
    plan.pairs = config.explicit_pairs;
  } else {
    des::Rng pair_rng = root.fork("pairs");
    if (config.require_connected_pairs) {
      const Topology topology(
          plan.positions,
          phy::Channel::nominal_range(*model, plan.radio, plan.terrain));
      plan.pairs = draw_connected_pairs(topology, config.pairs, pair_rng,
                                        config.min_pair_hops);
    } else {
      plan.pairs = draw_pairs(config.nodes, config.pairs, pair_rng);
    }
  }

  if (config.shards > 1) {
    const geom::ShardPartition partition(plan.terrain, config.shards);
    plan.owner = geom::shard_owner_map(partition, plan.positions);
    // Queries are const and the grid is never mutated (set_position asserts
    // exclusive ownership), so concurrent walks are race-free.
    if (!config.mobility) {
      plan.shared_index = std::make_shared<const geom::SpatialGrid>(
          plan.terrain,
          phy::Channel::index_cell_size(phy::Channel::interference_range(
              *model, plan.radio, plan.terrain)),
          plan.positions);
    }
  }
  return plan;
}

void World::attach(net::Node& node) {
  attach_protocol(config, node, flood_policy);
  app::attach_sink(node, flows);
}

void World::start() {
  network->start_protocols();
  if (failures != nullptr) failures->start();
  if (mobility != nullptr) mobility->start();
  for (auto& source : sources) source->start();
}

std::unique_ptr<World> build_world(const WorldPlan& plan,
                                   phy::ShardSpec shard,
                                   std::vector<geom::Vec2> positions) {
  const ScenarioConfig& config = plan.config;
  auto world = std::make_unique<World>(config);
  // A bare step() loop up to sim_end folds what run_until(sim_end) folds.
  world->scheduler.set_stop_time(config.sim_end);

  // Reserve this thread's object pools for every node this world owns, so
  // a stack built at first contact, at any point of the run, comes from an
  // arena. A reservation touches no page: only built stacks cost memory.
  const std::size_t owned =
      shard.owner.empty()
          ? config.nodes
          : static_cast<std::size_t>(std::count(
                shard.owner.begin(), shard.owner.end(), shard.shard));
  reserve_node_pools(config, owned);

  const des::Rng root(config.seed);
  world->network = std::make_unique<net::Network>(
      world->scheduler, plan.terrain, make_propagation(config), plan.radio,
      config.mac, std::move(positions), root.fork("network"), shard,
      plan.shared_index);
  net::Network& network = *world->network;
  world->flood_policy = make_flood_policy(config);
  network.on_build([w = world.get()](net::Node& node) { w->attach(node); });
  // Nodes are built at first contact. A proactive protocol beacons from
  // t = 0, so its nodes are all built here, in id order.
  if (config.protocol == ProtocolKind::Dsdv) {
    for (std::uint32_t id = 0; id < network.size(); ++id) {
      if (network.has_node(id)) (void)network.node(id);
    }
  }

  app::CbrConfig cbr;
  cbr.interval = config.cbr_interval;
  cbr.payload_bytes = config.payload_bytes;
  cbr.start_time = config.traffic_start;
  cbr.stop_time = config.traffic_stop;
  for (std::size_t p = 0; p < plan.pairs.size(); ++p) {
    const auto& [src, dst] = plan.pairs[p];
    RRNET_EXPECTS(src < network.size() && dst < network.size());
    app::CbrConfig pair_cbr = cbr;
    if (p < config.explicit_pair_intervals.size() &&
        config.explicit_pair_intervals[p] > 0.0) {
      pair_cbr.interval = config.explicit_pair_intervals[p];
    }
    if (network.has_node(src)) {
      world->sources.push_back(std::make_unique<app::CbrSource>(
          network.node(src), dst, pair_cbr, world->flows));
    }
    if (network.has_node(dst)) {
      net::Node& sink = network.node(dst);  // an endpoint is always built
      if (config.bidirectional) {
        world->sources.push_back(std::make_unique<app::CbrSource>(
            sink, src, pair_cbr, world->flows));
      }
    }
  }

  // Node failures: traffic endpoints are exempt (the paper turns off
  // transceivers "in all nodes but those that generate and receive CBR
  // traffic").
  if (config.failure_fraction > 0.0) {
    phy::FailureConfig fc;
    fc.off_fraction = config.failure_fraction;
    fc.mean_cycle_s = config.failure_cycle_s;
    for (const auto& [src, dst] : plan.pairs) {
      fc.exempt_nodes.push_back(src);
      fc.exempt_nodes.push_back(dst);
    }
    world->failures = std::make_unique<phy::FailureModel>(
        world->scheduler, network.channel(), fc, root.fork("failures"));
  }

  // Mobility moves ALL nodes, owned or not, so a shard's position grid stays
  // bitwise equal to the serial one, and a replayed handoff walk sees the
  // distances its source saw. Traffic endpoints are pinned.
  if (config.mobility) {
    MobilityConfig mc;
    mc.min_speed_mps = config.mobility_min_speed_mps;
    mc.max_speed_mps = config.mobility_max_speed_mps;
    mc.pause_s = config.mobility_pause_s;
    for (const auto& [src, dst] : plan.pairs) {
      mc.pinned_nodes.push_back(src);
      mc.pinned_nodes.push_back(dst);
    }
    world->mobility = std::make_unique<RandomWaypoint>(
        world->scheduler, network.channel(), plan.terrain, mc,
        root.fork("mobility"));
  }

  // A meter runs from t = 0, so metering builds every owned node.
  if (config.track_energy) {
    for (std::uint32_t id = 0; id < network.size(); ++id) {
      if (!network.has_node(id)) continue;
      network.channel().transceiver(id).enable_energy(config.energy_profile,
                                                      world->scheduler);
    }
  }
  return world;
}

WorldOutcome harvest_world(World& world) {
  namespace m = obs::metric;
  WorldOutcome out;
  net::Network& network = *world.network;
  network.snapshot_metrics(out.metrics, out.backoff_slots);
  out.metrics.add(m::kDesEventsExecuted, world.scheduler.executed_count());
  out.metrics.set_max(m::kDesHeapHighWater, world.scheduler.heap_high_water());
  out.metrics.add(m::kDesInlineAdvances,
                  world.scheduler.inline_advance_count());
  out.metrics.add(m::kSimNodesBuilt, network.nodes_built());
  out.flow_log = world.flows.take_event_log();
  out.mac_tx = network.total_mac_tx();
  out.channel_tx = network.channel().stats().transmissions;
  out.events_executed = world.scheduler.executed_count();
  if (world.config.track_energy) {
    for (std::uint32_t id = 0; id < network.size(); ++id) {
      if (!network.has_node(id)) continue;
      // finalize_energy is idempotent at a fixed clock time.
      phy::Transceiver& radio = network.channel().transceiver(id);
      radio.finalize_energy();
      if (const phy::EnergyMeter* meter = radio.energy_meter()) {
        out.energy.emplace_back(id, meter->consumed_joules());
      }
    }
  }
  return out;
}

ScenarioResult assemble_result(const app::FlowStats& flows,
                               std::span<const WorldOutcome> outcomes) {
  ScenarioResult r;
  r.sent = flows.sent();
  r.delivered = flows.delivered();
  r.delivery_ratio = flows.delivery_ratio();
  r.mean_delay_s = flows.delay().empty() ? 0.0 : flows.delay().mean();
  r.mean_hops = flows.hops().empty() ? 0.0 : flows.hops().mean();
  obs::Histogram backoff_slots;
  std::vector<std::pair<std::uint32_t, double>> energy;
  for (const WorldOutcome& out : outcomes) {
    r.mac_packets += out.mac_tx;
    r.channel_transmissions += out.channel_tx;
    r.events_executed += out.events_executed;
    r.metrics.merge(out.metrics);
    backoff_slots.merge(out.backoff_slots);
    energy.insert(energy.end(), out.energy.begin(), out.energy.end());
  }
  // Percentiles come from the union histogram: per-shard p50/p99 gauges
  // merged by max would not be the one-world flattening.
  if (!backoff_slots.empty()) {
    backoff_slots.snapshot_into(r.metrics, obs::metric::kMacBackoffSlots);
  }
  if (!energy.empty()) {
    // Exactly one world reports each node (its owner), so summing in
    // node-id order gives the same bits for any shard count.
    std::sort(energy.begin(), energy.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [id, joules] : energy) r.total_energy_j += joules;
    if (r.delivered > 0) {
      r.energy_per_delivered_j =
          r.total_energy_j / static_cast<double>(r.delivered);
    }
  }
  return r;
}

PoolBaseline::PoolBaseline() {
  util::PayloadPool& pkt = net::packet_buffer_pool();
  pkt.reset_high_water();
  packet_allocs_ = pkt.stats().pool_allocs + pkt.stats().heap_allocs;
  packet_heap_allocs_ = pkt.stats().heap_allocs;
  for_each_object_pool([this](util::PayloadPool& pool) {
    pool.reset_high_water();
    object_allocs_ += pool.stats().pool_allocs + pool.stats().heap_allocs;
    object_heap_allocs_ += pool.stats().heap_allocs;
  });
}

void PoolBaseline::add_deltas(obs::MetricRegistry& reg) const {
  namespace m = obs::metric;
  const util::PayloadPool& pkt = net::packet_buffer_pool();
  reg.add(m::kPoolPacketAllocs,
          pkt.stats().pool_allocs + pkt.stats().heap_allocs - packet_allocs_);
  reg.add(m::kPoolPacketHeapAllocs,
          pkt.stats().heap_allocs - packet_heap_allocs_);
  reg.set_max(m::kPoolPacketInUseHighWater, pkt.in_use_high_water());
  std::uint64_t allocs = 0;
  std::uint64_t heap_allocs = 0;
  std::uint64_t in_use_high_water = 0;
  for_each_object_pool([&](const util::PayloadPool& pool) {
    allocs += pool.stats().pool_allocs + pool.stats().heap_allocs;
    heap_allocs += pool.stats().heap_allocs;
    in_use_high_water += pool.in_use_high_water();
  });
  reg.add(m::kPoolObjectAllocs, allocs - object_allocs_);
  reg.add(m::kPoolObjectHeapAllocs, heap_allocs - object_heap_allocs_);
  reg.set_max(m::kPoolObjectInUseHighWater, in_use_high_water);
}

SimInstance::SimInstance(const ScenarioConfig& config)
    : config_(config), plan_(plan_world(config_)) {
  if (config_.health_monitor != nullptr) config_.health_monitor->begin_run();
  if (config_.trace_events) {
    tracer_ = std::make_unique<obs::EventTracer>(config_.trace_capacity);
    tracer_->set_enabled(true);
    prev_tracer_ = obs::set_thread_tracer(tracer_.get());
  }
  world_ = build_world(plan_, {}, std::move(plan_.positions));
  if (config_.trace_paths) {
    trace_ = std::make_unique<trace::PathTrace>(*world_->network);
  }
}

SimInstance::~SimInstance() {
  // Only restore if we are still the installed tracer: a later SimInstance
  // on this thread may have replaced us (LIFO destruction restores
  // correctly; other orders leave the newest tracer installed).
  if (tracer_ != nullptr && obs::thread_tracer() == tracer_.get()) {
    obs::set_thread_tracer(prev_tracer_);
  }
}

void SimInstance::run_until(des::Time t) {
  // Re-install our tracer in case another instance was built in between.
  if (tracer_ != nullptr && obs::thread_tracer() != tracer_.get()) {
    obs::set_thread_tracer(tracer_.get());
  }
  if (!started_) {
    started_ = true;
    world_->start();
  }
  des::Scheduler& scheduler = world_->scheduler;
  obs::RunHealthMonitor* monitor = config_.health_monitor;
  if (monitor == nullptr) {
    scheduler.run_until(t);
    return;
  }
  // Serial health sampling: run in bounded event slices so the monitor can
  // sample throughput/RSS "every N events" and enforce budgets between
  // slices. The slice sequence executes exactly what one run_until(t)
  // would, so results are unchanged; a budget abort stops at a slice edge
  // and keeps the partial state consistent for result().
  constexpr std::uint64_t kEventsPerCheckpoint = std::uint64_t{1} << 18;
  bool within_budget = monitor->checkpoint(scheduler.executed_count());
  while (within_budget && !scheduler.run_until(t, kEventsPerCheckpoint)) {
    within_budget = monitor->checkpoint(scheduler.executed_count());
  }
}

void SimInstance::run() {
  run_until(config_.sim_end);
  if (config_.health_monitor != nullptr) {
    config_.health_monitor->note_nodes_built(world_->network->nodes_built());
    config_.health_monitor->finish_run(world_->scheduler.executed_count());
  }
}

ScenarioResult SimInstance::result() const {
  // Pools are thread-local: call on the thread that built and ran this
  // instance (replication workers build, run and read each on one thread).
  WorldOutcome outcome = harvest_world(*world_);
  pools_.add_deltas(outcome.metrics);
  return assemble_result(world_->flows, {&outcome, 1});
}

}  // namespace rrnet::sim
