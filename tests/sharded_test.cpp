// Determinism gate for the sharded engine: for any shard count K, every
// semantic metric — flow stats, per-layer counters, figure columns — must
// be bit-identical to the serial run. Engine-internal counters (des.*,
// pool.*, shard.*, runtime.*) legitimately differ (extra walker
// bookkeeping, per-worker pools, wall-clock-derived profiler telemetry)
// and are excluded.
#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "net/packet_buffer.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "geom/shard_partition.hpp"
#include "proto/dsr.hpp"
#include "sim/builder.hpp"
#include "sim/replication.hpp"
#include "sim/runner.hpp"
#include "sim/sharded.hpp"

namespace rrnet::sim {
namespace {

bool engine_internal(std::string_view name) {
  return name.starts_with("des.") || name.starts_with("pool.") ||
         name.starts_with("sim.") || name.starts_with("shard.") ||
         name.starts_with("runtime.");
}

void expect_semantically_identical(const ScenarioResult& serial,
                                   const ScenarioResult& sharded,
                                   std::uint32_t shards) {
  EXPECT_EQ(serial.sent, sharded.sent) << "K=" << shards;
  EXPECT_EQ(serial.delivered, sharded.delivered) << "K=" << shards;
  EXPECT_EQ(serial.delivery_ratio, sharded.delivery_ratio) << "K=" << shards;
  EXPECT_EQ(serial.mean_delay_s, sharded.mean_delay_s) << "K=" << shards;
  EXPECT_EQ(serial.mean_hops, sharded.mean_hops) << "K=" << shards;
  EXPECT_EQ(serial.mac_packets, sharded.mac_packets) << "K=" << shards;
  EXPECT_EQ(serial.channel_transmissions, sharded.channel_transmissions)
      << "K=" << shards;
  for (const obs::Metric& metric : serial.metrics.snapshot()) {
    if (engine_internal(metric.name)) continue;
    EXPECT_EQ(metric.value, sharded.metrics.value(metric.name))
        << "K=" << shards << " metric=" << metric.name;
  }
  for (const obs::Metric& metric : sharded.metrics.snapshot()) {
    if (engine_internal(metric.name)) continue;
    EXPECT_TRUE(serial.metrics.contains(metric.name))
        << "K=" << shards << " sharded-only metric=" << metric.name;
  }
}

/// Figure-1-shaped scenario (SSAF flood over a wide terrain), scaled down.
ScenarioConfig fig1_scenario() {
  ScenarioConfig config;
  config.seed = 20260808;
  config.nodes = 140;
  config.width_m = 1600.0;
  config.height_m = 900.0;
  config.range_m = 250.0;
  config.protocol = ProtocolKind::Ssaf;
  config.pairs = 2;
  config.require_connected_pairs = true;
  config.min_pair_hops = 2;
  config.cbr_interval = 0.5;
  config.payload_bytes = 256;
  config.traffic_start = 1.0;
  config.traffic_stop = 5.0;
  config.sim_end = 7.0;
  return config;
}

/// Figure-3-shaped scenario (routeless routing, bidirectional CBR).
ScenarioConfig fig3_scenario() {
  ScenarioConfig config;
  config.seed = 424242;
  config.nodes = 120;
  config.width_m = 1400.0;
  config.height_m = 1000.0;
  config.range_m = 250.0;
  config.protocol = ProtocolKind::Routeless;
  config.pairs = 2;
  config.bidirectional = true;
  config.cbr_interval = 0.5;
  config.payload_bytes = 256;
  config.traffic_start = 1.0;
  config.traffic_stop = 5.0;
  config.sim_end = 7.0;
  return config;
}

TEST(ShardedDeterminism, Fig1SsafBitIdenticalAcrossShardCounts) {
  const ScenarioResult serial = run_scenario(fig1_scenario());
  ASSERT_GT(serial.sent, 0u);
  ASSERT_GT(serial.delivered, 0u);
  for (const std::uint32_t shards : {2u, 4u}) {
    ScenarioConfig config = fig1_scenario();
    config.shards = shards;
    config.shard_threads = 2;
    const ScenarioResult result = run_scenario(config);
    expect_semantically_identical(serial, result, shards);
  }
}

TEST(ShardedDeterminism, Fig3RoutelessBitIdenticalAcrossShardCounts) {
  const ScenarioResult serial = run_scenario(fig3_scenario());
  ASSERT_GT(serial.sent, 0u);
  for (const std::uint32_t shards : {2u, 4u}) {
    ScenarioConfig config = fig3_scenario();
    config.shards = shards;
    config.shard_threads = 2;
    const ScenarioResult result = run_scenario(config);
    expect_semantically_identical(serial, result, shards);
  }
}

/// Mobility scenario tuned so nodes actually cross strip boundaries: a
/// narrow-but-wide terrain (thin strips at K=4) and fast nodes.
ScenarioConfig mobility_scenario() {
  ScenarioConfig config;
  config.seed = 8881;
  config.nodes = 100;
  config.width_m = 1200.0;
  config.height_m = 800.0;
  config.range_m = 250.0;
  config.protocol = ProtocolKind::Ssaf;
  config.pairs = 2;
  config.cbr_interval = 0.5;
  config.payload_bytes = 256;
  config.traffic_start = 1.0;
  config.traffic_stop = 8.0;
  config.sim_end = 10.0;
  config.mobility = true;
  config.mobility_min_speed_mps = 10.0;
  config.mobility_max_speed_mps = 30.0;
  config.mobility_pause_s = 0.5;
  return config;
}

/// Rayleigh-fading scenario: every per-receiver power is a stochastic draw,
/// exercising the counter-based per-link streams end to end.
ScenarioConfig fading_scenario(PropagationKind kind) {
  ScenarioConfig config;
  config.seed = 5150;
  config.nodes = 110;
  config.width_m = 1300.0;
  config.height_m = 900.0;
  config.range_m = 250.0;
  config.propagation = kind;
  config.protocol = ProtocolKind::Counter1Flooding;
  config.pairs = 2;
  config.cbr_interval = 0.5;
  config.payload_bytes = 256;
  config.traffic_start = 1.0;
  config.traffic_stop = 5.0;
  config.sim_end = 7.0;
  return config;
}

/// Figure-4-shaped scenario: periodic transceiver failures plus energy
/// accounting (the failure schedule and the meters both must shard).
ScenarioConfig fig4_scenario() {
  ScenarioConfig config;
  config.seed = 40404;
  config.nodes = 120;
  config.width_m = 1400.0;
  config.height_m = 1000.0;
  config.range_m = 250.0;
  config.protocol = ProtocolKind::Ssaf;
  config.pairs = 2;
  config.cbr_interval = 0.5;
  config.payload_bytes = 256;
  config.traffic_start = 1.0;
  config.traffic_stop = 6.0;
  config.sim_end = 8.0;
  config.failure_fraction = 0.3;
  config.failure_cycle_s = 2.0;
  config.track_energy = true;
  return config;
}

void expect_energy_identical(const ScenarioResult& serial,
                             const ScenarioResult& sharded,
                             std::uint32_t shards) {
  EXPECT_EQ(serial.total_energy_j, sharded.total_energy_j) << "K=" << shards;
  EXPECT_EQ(serial.energy_per_delivered_j, sharded.energy_per_delivered_j)
      << "K=" << shards;
}

/// Node positions of a serial run, read from its channel.
std::vector<geom::Vec2> positions_of(SimInstance& sim) {
  std::vector<geom::Vec2> out;
  for (std::uint32_t id = 0; id < sim.network().size(); ++id) {
    out.push_back(sim.network().channel().position(id));
  }
  return out;
}

TEST(ShardedDeterminism, MobilityBitIdenticalAcrossShardCounts) {
  SimInstance sim(mobility_scenario());
  const std::vector<geom::Vec2> placed = positions_of(sim);
  sim.run();
  const std::vector<geom::Vec2> final_positions = positions_of(sim);
  const ScenarioResult serial = sim.result();
  ASSERT_GT(serial.sent, 0u);
  ASSERT_GT(serial.delivered, 0u);
  for (const std::uint32_t shards : {2u, 4u}) {
    ScenarioConfig config = mobility_scenario();
    config.shards = shards;
    config.shard_threads = 2;
    const ScenarioResult result = run_scenario(config);
    expect_semantically_identical(serial, result, shards);
    // Tuned so nodes end the run outside the strip that owns them —
    // otherwise this gate would silently degrade into the static one.
    const geom::ShardPartition partition(sim.terrain(), shards);
    const std::vector<std::uint32_t> owner =
        geom::shard_owner_map(partition, placed);
    const std::vector<std::uint32_t> home =
        geom::shard_owner_map(partition, final_positions);
    EXPECT_NE(owner, home) << "K=" << shards;
  }
}

TEST(ShardedDeterminism, RayleighFadingBitIdenticalAcrossShardCounts) {
  const ScenarioResult serial =
      run_scenario(fading_scenario(PropagationKind::Rayleigh));
  ASSERT_GT(serial.sent, 0u);
  for (const std::uint32_t shards : {2u, 4u}) {
    ScenarioConfig config = fading_scenario(PropagationKind::Rayleigh);
    config.shards = shards;
    config.shard_threads = 2;
    const ScenarioResult result = run_scenario(config);
    expect_semantically_identical(serial, result, shards);
  }
}

TEST(ShardedDeterminism, ShadowingBitIdenticalAcrossShardCounts) {
  const ScenarioResult serial =
      run_scenario(fading_scenario(PropagationKind::Shadowing));
  ASSERT_GT(serial.sent, 0u);
  for (const std::uint32_t shards : {2u, 4u}) {
    ScenarioConfig config = fading_scenario(PropagationKind::Shadowing);
    config.shards = shards;
    config.shard_threads = 2;
    const ScenarioResult result = run_scenario(config);
    expect_semantically_identical(serial, result, shards);
  }
}

TEST(ShardedDeterminism, Fig4FailuresAndEnergyBitIdentical) {
  const ScenarioResult serial = run_scenario(fig4_scenario());
  ASSERT_GT(serial.sent, 0u);
  ASSERT_GT(serial.total_energy_j, 0.0);
  // The failure model must actually be flipping radios for this to gate
  // anything.
  ASSERT_GT(serial.metrics.value("phy.drop_while_off") +
                serial.metrics.value("phy.tx_dropped_off") +
                serial.metrics.value("mac.tx_dropped_radio_off"),
            0u);
  for (const std::uint32_t shards : {2u, 4u}) {
    ScenarioConfig config = fig4_scenario();
    config.shards = shards;
    config.shard_threads = 2;
    const ScenarioResult result = run_scenario(config);
    expect_semantically_identical(serial, result, shards);
    expect_energy_identical(serial, result, shards);
  }
}

TEST(ShardedDeterminism, MobileFadingEnergyComposeBitIdentically) {
  // Everything at once — the scenario shape the guards used to reject
  // wholesale: moving nodes, stochastic fading, failures, and energy.
  ScenarioConfig base = mobility_scenario();
  base.propagation = PropagationKind::Rayleigh;
  base.failure_fraction = 0.2;
  base.failure_cycle_s = 2.0;
  base.track_energy = true;
  base.traffic_stop = 5.0;
  base.sim_end = 7.0;
  const ScenarioResult serial = run_scenario(base);
  ASSERT_GT(serial.sent, 0u);
  for (const std::uint32_t shards : {2u, 4u}) {
    ScenarioConfig config = base;
    config.shards = shards;
    config.shard_threads = 2;
    const ScenarioResult result = run_scenario(config);
    expect_semantically_identical(serial, result, shards);
    expect_energy_identical(serial, result, shards);
  }
}

TEST(ShardedDeterminism, MobilityThreadCountInvariant) {
  ScenarioConfig config = mobility_scenario();
  config.shards = 4;
  config.shard_threads = 1;
  const ScenarioResult one = run_scenario(config);
  config.shard_threads = 4;
  const ScenarioResult four = run_scenario(config);
  expect_semantically_identical(one, four, 4);
}

TEST(ShardedDeterminism, ReplicationsComposeWithShards) {
  // run_replications over a sharded config: the outer replication pool and
  // the inner per-replication shard pools share one thread budget (outer x
  // inner <= requested), and every replication stays bit-identical to its
  // serial twin regardless of how the budget splits. A requested budget
  // smaller than reps x shards must clamp, not oversubscribe.
  ScenarioConfig config = mobility_scenario();
  const Aggregated serial = run_replications(config, 3, 2);
  config.shards = 2;
  config.shard_threads = 0;  // would resolve to hw without the clamp
  const Aggregated sharded = run_replications(config, 3, 2);
  EXPECT_EQ(serial.delivery_ratio.mean, sharded.delivery_ratio.mean);
  EXPECT_EQ(serial.delay_s.mean, sharded.delay_s.mean);
  EXPECT_EQ(serial.hops.mean, sharded.hops.mean);
  EXPECT_EQ(serial.mac_packets.mean, sharded.mac_packets.mean);
  for (const obs::Metric& metric : serial.metrics.snapshot()) {
    if (engine_internal(metric.name)) continue;
    EXPECT_EQ(metric.value, sharded.metrics.value(metric.name))
        << "metric=" << metric.name;
  }
}

TEST(SerialFadingRng, DeterministicPerSeedAfterLinkRngSwitch) {
  // The one documented result change of the counter-based rng scheme:
  // serial stochastic-fading runs draw per-link streams now, so absolute
  // numbers moved ONCE. This pins the new scheme down: per-seed
  // reproducibility and seed sensitivity.
  const ScenarioResult a =
      run_scenario(fading_scenario(PropagationKind::Rayleigh));
  const ScenarioResult b =
      run_scenario(fading_scenario(PropagationKind::Rayleigh));
  EXPECT_EQ(a.sent, b.sent);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.mean_delay_s, b.mean_delay_s);
  EXPECT_EQ(a.mac_packets, b.mac_packets);
  EXPECT_EQ(a.channel_transmissions, b.channel_transmissions);

  ScenarioConfig other = fading_scenario(PropagationKind::Rayleigh);
  other.seed = 5151;
  const ScenarioResult c = run_scenario(other);
  EXPECT_NE(std::tie(a.delivered, a.mean_delay_s, a.mac_packets),
            std::tie(c.delivered, c.mean_delay_s, c.mac_packets));
}

TEST(ShardedDeterminism, EmptyShardsAreHarmless) {
  // More shards than can be populated: several strips own zero nodes, and
  // their idle schedulers must not stall or skew the window protocol.
  ScenarioConfig config = fig3_scenario();
  config.nodes = 12;
  config.pairs = 1;
  const ScenarioResult serial = run_scenario(config);
  config.shards = 8;
  config.shard_threads = 4;
  const ScenarioResult result = run_scenario(config);
  expect_semantically_identical(serial, result, 8);
}

TEST(ShardedDeterminism, ShardedRunIsRepeatable) {
  ScenarioConfig config = fig1_scenario();
  config.shards = 4;
  config.shard_threads = 4;
  const ScenarioResult a = run_scenario(config);
  const ScenarioResult b = run_scenario(config);
  EXPECT_EQ(a.sent, b.sent);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.mean_delay_s, b.mean_delay_s);
  EXPECT_EQ(a.mac_packets, b.mac_packets);
}

TEST(ShardedDeterminism, SingleThreadEqualsMultiThread) {
  ScenarioConfig config = fig1_scenario();
  config.shards = 4;
  config.shard_threads = 1;
  const ScenarioResult one = run_scenario(config);
  config.shard_threads = 4;
  const ScenarioResult four = run_scenario(config);
  expect_semantically_identical(one, four, 4);
}

TEST(ShardedDeterminism, RuntimeProfilerOnStaysBitIdentical) {
  // The profiler stamps wall clock only at round boundaries, so turning it
  // on must not move a single semantic bit — at any K, against a serial
  // baseline that also has it enabled (a no-op there).
  ScenarioConfig base = fig1_scenario();
  base.profile_runtime = true;
  const ScenarioResult serial = run_scenario(base);
  ASSERT_GT(serial.sent, 0u);
  for (const std::uint32_t shards : {2u, 4u}) {
    ScenarioConfig config = base;
    config.shards = shards;
    config.shard_threads = 2;
    const ScenarioResult result = run_scenario(config);
    expect_semantically_identical(serial, result, shards);
    // The telemetry itself must be there (excluded from the sweep above).
    EXPECT_GT(result.metrics.value(obs::metric::kShardRounds), 0u)
        << "K=" << shards;
    EXPECT_GT(result.metrics.value(obs::metric::kRuntimeExecuteNs), 0u)
        << "K=" << shards;
    EXPECT_GE(result.metrics.value(obs::metric::kRuntimeBarrierWaitPct), 0u)
        << "K=" << shards;
  }
}

TEST(ShardedDeterminism, HealthMonitorAndProfilerComposeWithMobility) {
  // Monitor + profiler together on the hardest scenario (mobile nodes
  // crossing strips): still bit-identical, and the monitor observed a live
  // run without tripping any budget (none were set).
  const ScenarioResult serial = run_scenario(mobility_scenario());
  ASSERT_GT(serial.sent, 0u);
  ScenarioConfig config = mobility_scenario();
  config.shards = 4;
  config.shard_threads = 2;
  config.profile_runtime = true;
  obs::RunHealthMonitor monitor;
  config.health_monitor = &monitor;
  const ScenarioResult result = run_scenario(config);
  expect_semantically_identical(serial, result, 4);
  EXPECT_EQ(result.events_executed, monitor.events());
  EXPECT_GT(monitor.wall_s(), 0.0);
  EXPECT_FALSE(monitor.budget_exceeded());
  EXPECT_GE(monitor.samples().size(), 1u);
  // note_profile ran in the coordinator: the report gets one phase
  // breakdown per worker, each fully covered by the contiguous laps.
  ASSERT_EQ(monitor.worker_phases().size(), 2u);
  EXPECT_GT(monitor.min_phase_coverage(), 0.95);
}

TEST(FirstContact, ShardedMobilityRunBuildsTheNodesSerialBuilds) {
  // A sparse flood over moving nodes: most nodes are never reached. Each
  // node is built on its one owner shard when first contacted, so the
  // shards together build exactly the nodes the serial run builds.
  ScenarioConfig config;
  config.seed = 11;
  config.nodes = 300;
  config.width_m = 3000.0;
  config.height_m = 3000.0;
  config.range_m = 250.0;
  config.protocol = ProtocolKind::Ssaf;
  config.pairs = 1;
  config.require_connected_pairs = true;
  config.min_pair_hops = 2;
  config.flood_ttl = 4;
  config.cbr_interval = 1.0;
  config.payload_bytes = 128;
  config.traffic_start = 1.0;
  config.traffic_stop = 4.0;
  config.sim_end = 6.0;
  config.mobility = true;
  config.mobility_min_speed_mps = 20.0;
  config.mobility_max_speed_mps = 40.0;
  config.mobility_pause_s = 0.5;
  SimInstance serial(config);
  serial.run();
  const ScenarioResult want = serial.result();
  const std::uint64_t serial_built = serial.network().nodes_built();
  ASSERT_GT(want.sent, 0u);
  ASSERT_GT(serial_built, 2u);  // the floods reached someone ...
  ASSERT_LT(serial_built, config.nodes);  // ... but not everyone

  config.shards = 2;
  config.shard_threads = 2;
  const ScenarioResult got = run_scenario(config);
  expect_semantically_identical(want, got, 2);
  EXPECT_EQ(got.metrics.value(obs::metric::kSimNodesBuilt), serial_built);
}

TEST(ClonePacketDeep, CopiesEveryFieldAndRehomesExtension) {
  net::PacketInit init;
  init.type = net::PacketType::Data;
  init.origin = 3;
  init.target = 9;
  init.sequence = 77;
  init.uid = (std::uint64_t{3} << 32) | 12;
  init.payload_bytes = 512;
  init.created_at = 1.25;
  init.rreq_id = 5;
  init.origin_seqno = 8;
  init.target_seqno = 2;
  init.unreachable = 1;
  init.extension =
      net::make_extension<proto::SourceRouteExtension>(
          std::vector<std::uint32_t>{3, 4, 9});
  net::PacketRef original = net::make_packet(std::move(init));
  original.hop().ttl = 7;
  original.hop().prev_hop = 4;
  original.hop().actual_hops = 3;
  original.hop().expected_hops = 5;

  const net::PacketRef clone = net::clone_packet_deep(original);
  EXPECT_EQ(clone.type(), original.type());
  EXPECT_EQ(clone.origin(), original.origin());
  EXPECT_EQ(clone.target(), original.target());
  EXPECT_EQ(clone.sequence(), original.sequence());
  EXPECT_EQ(clone.uid(), original.uid());
  EXPECT_EQ(clone.payload_bytes(), original.payload_bytes());
  EXPECT_EQ(clone.created_at(), original.created_at());
  EXPECT_EQ(clone.rreq_id(), original.rreq_id());
  EXPECT_EQ(clone.origin_seqno(), original.origin_seqno());
  EXPECT_EQ(clone.target_seqno(), original.target_seqno());
  EXPECT_EQ(clone.unreachable(), original.unreachable());
  EXPECT_EQ(clone.ttl(), original.ttl());
  EXPECT_EQ(clone.prev_hop(), original.prev_hop());
  EXPECT_EQ(clone.actual_hops(), original.actual_hops());
  EXPECT_EQ(clone.expected_hops(), original.expected_hops());
  // Distinct buffers (the whole point: the clone lives in the destination
  // shard's pool), equal extension payload.
  EXPECT_NE(&clone.buffer(), &original.buffer());
  const auto* route = clone.buffer().extension_as<proto::SourceRouteExtension>();
  ASSERT_NE(route, nullptr);
  EXPECT_NE(route,
            original.buffer().extension_as<proto::SourceRouteExtension>());
  EXPECT_EQ(route->route,
            original.buffer()
                .extension_as<proto::SourceRouteExtension>()
                ->route);
}

TEST(ShardedTrace, TwoShardRunTracesSameEventMultisetAsOneShard) {
  // HandlerSpan / WindowSpan / BarrierWait ids are wall-clock nanoseconds
  // and scheduler/worker structure is engine-internal, so the comparison
  // covers packet-lifecycle and election records only. With tracing
  // compiled out both sides are empty and the test degenerates to checking
  // the merge path doesn't crash.
  using Key = std::tuple<double, std::uint64_t, std::uint32_t, std::uint16_t,
                         std::uint16_t>;
  const auto semantic_keys = [](const std::vector<obs::TraceRecord>& records) {
    std::vector<Key> keys;
    for (const obs::TraceRecord& rec : records) {
      if (rec.kind ==
              static_cast<std::uint16_t>(obs::EventKind::HandlerSpan) ||
          rec.kind ==
              static_cast<std::uint16_t>(obs::EventKind::WindowSpan) ||
          rec.kind ==
              static_cast<std::uint16_t>(obs::EventKind::BarrierWait)) {
        continue;
      }
      keys.emplace_back(rec.time, rec.id, rec.node, rec.kind, rec.arg);
    }
    std::sort(keys.begin(), keys.end());
    return keys;
  };

  ScenarioConfig config = fig3_scenario();
  config.nodes = 60;
  config.sim_end = 4.0;
  config.traffic_stop = 3.0;
  config.trace_events = true;

  SimInstance serial(config);
  serial.run();
  ASSERT_NE(serial.tracer(), nullptr);
  const std::vector<Key> serial_keys =
      semantic_keys(serial.tracer()->snapshot());

  config.shards = 2;
  config.shard_threads = 2;
  std::vector<obs::TraceRecord> sharded_records;
  (void)run_scenario_sharded(config, &sharded_records);
  const std::vector<Key> sharded_keys = semantic_keys(sharded_records);

  if (obs::trace_compiled_in()) {
    ASSERT_FALSE(serial_keys.empty());
  }
  EXPECT_EQ(serial_keys, sharded_keys);

  // The merged stream must round-trip through the record exporters: one
  // JSONL line per record, same formatting as the single-ring path.
  std::ostringstream os;
  ASSERT_TRUE(obs::export_records_jsonl(sharded_records, os));
  const std::string jsonl = os.str();
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(jsonl.begin(), jsonl.end(), '\n')),
            sharded_records.size());
  std::ostringstream chrome;
  ASSERT_TRUE(obs::export_records_chrome_trace(sharded_records, chrome));
  EXPECT_NE(chrome.str().find("\"traceEvents\""), std::string::npos);
}

}  // namespace
}  // namespace rrnet::sim
