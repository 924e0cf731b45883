#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/profiler.hpp"
#include "sim/builder.hpp"
#include "sim/replication.hpp"
#include "sim/runner.hpp"
#include "sim/sharded.hpp"
#include "sim/sweep.hpp"
#include "test_helpers.hpp"

namespace rrnet::sim {
namespace {

ScenarioConfig small_scenario(ProtocolKind protocol) {
  ScenarioConfig config;
  config.seed = 11;
  config.nodes = 30;
  config.width_m = 600.0;
  config.height_m = 600.0;
  config.range_m = 250.0;
  config.protocol = protocol;
  config.pairs = 2;
  config.cbr_interval = 1.0;
  config.payload_bytes = 128;
  config.traffic_start = 1.0;
  config.traffic_stop = 8.0;
  config.sim_end = 15.0;
  return config;
}

TEST(DrawPairs, EndpointsDistinctAndInRange) {
  des::Rng rng(5);
  const auto pairs = draw_pairs(20, 50, rng);
  ASSERT_EQ(pairs.size(), 50u);
  for (const auto& [src, dst] : pairs) {
    EXPECT_LT(src, 20u);
    EXPECT_LT(dst, 20u);
    EXPECT_NE(src, dst);
  }
}

TEST(ProtocolKindNames, AllDistinct) {
  EXPECT_STREQ(to_string(ProtocolKind::Ssaf), "SSAF");
  EXPECT_STREQ(to_string(ProtocolKind::Routeless), "Routeless Routing");
  EXPECT_STREQ(to_string(ProtocolKind::Aodv), "AODV");
}

TEST(SimInstance, RunsAndProducesSaneMetrics) {
  const ScenarioResult r = run_scenario(small_scenario(ProtocolKind::Ssaf));
  EXPECT_GT(r.sent, 0u);
  EXPECT_GT(r.delivered, 0u);
  EXPECT_GE(r.delivery_ratio, 0.0);
  EXPECT_LE(r.delivery_ratio, 1.0);
  EXPECT_GT(r.mac_packets, r.sent);
  EXPECT_GT(r.events_executed, 0u);
  EXPECT_GE(r.mean_hops, 1.0);
  EXPECT_GT(r.mean_delay_s, 0.0);
}

TEST(SimInstance, DeterministicForSameSeed) {
  const ScenarioResult a = run_scenario(small_scenario(ProtocolKind::Routeless));
  const ScenarioResult b = run_scenario(small_scenario(ProtocolKind::Routeless));
  EXPECT_EQ(a.sent, b.sent);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.mac_packets, b.mac_packets);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_DOUBLE_EQ(a.mean_delay_s, b.mean_delay_s);
}

TEST(SimInstance, SeedChangesOutcome) {
  ScenarioConfig c1 = small_scenario(ProtocolKind::Ssaf);
  ScenarioConfig c2 = c1;
  c2.seed = 12;
  const ScenarioResult a = run_scenario(c1);
  const ScenarioResult b = run_scenario(c2);
  EXPECT_NE(a.events_executed, b.events_executed);
}

TEST(SimInstance, ExplicitPairsHonored) {
  ScenarioConfig config = small_scenario(ProtocolKind::Ssaf);
  config.explicit_pairs = {{0, 1}, {2, 3}};
  SimInstance sim(config);
  ASSERT_EQ(sim.pairs().size(), 2u);
  EXPECT_EQ(sim.pairs()[0], (std::pair<std::uint32_t, std::uint32_t>{0, 1}));
}

TEST(SimInstance, BidirectionalDoublesTraffic) {
  ScenarioConfig uni = small_scenario(ProtocolKind::Ssaf);
  ScenarioConfig bi = uni;
  bi.bidirectional = true;
  const ScenarioResult a = run_scenario(uni);
  const ScenarioResult b = run_scenario(bi);
  EXPECT_GT(b.sent, a.sent * 3 / 2);
}

TEST(SimInstance, TracePathsRecordsWhenEnabled) {
  ScenarioConfig config = small_scenario(ProtocolKind::Routeless);
  config.trace_paths = true;
  SimInstance sim(config);
  sim.run();
  ASSERT_NE(sim.path_trace(), nullptr);
  EXPECT_FALSE(sim.path_trace()->paths().empty());
}

TEST(SimInstance, FailureModelCreatedOnlyWhenRequested) {
  ScenarioConfig config = small_scenario(ProtocolKind::Routeless);
  SimInstance without(config);
  EXPECT_EQ(without.failures(), nullptr);
  config.failure_fraction = 0.1;
  SimInstance with(config);
  EXPECT_NE(with.failures(), nullptr);
}

TEST(SimInstance, RadioCalibratedToConfiguredRange) {
  ScenarioConfig config = small_scenario(ProtocolKind::Ssaf);
  config.range_m = 180.0;
  SimInstance sim(config);
  EXPECT_NEAR(sim.network().channel().nominal_range_m(), 180.0, 1.0);
}

TEST(SimInstance, HealthMonitorRestartsForEachRun) {
  // One monitor reused across serial runs: each run starts it afresh when
  // its world is built, so the second run's report is its own.
  obs::RunHealthMonitor monitor;
  for (const ProtocolKind kind : {ProtocolKind::Ssaf, ProtocolKind::Routeless}) {
    SCOPED_TRACE(to_string(kind));
    ScenarioConfig config = small_scenario(kind);
    config.health_monitor = &monitor;
    SimInstance sim(config);
    sim.run();
    EXPECT_GT(sim.scheduler().executed_count(), 0u);
    EXPECT_EQ(monitor.events(), sim.scheduler().executed_count());
    EXPECT_GT(monitor.wall_s(), 0.0);
  }
}

// Compare two summaries bit-exactly (NaN-safe): determinism means identical
// doubles, not merely close ones.
void expect_bit_identical(const util::Summary& a, const util::Summary& b,
                          const char* what) {
  EXPECT_EQ(a.count, b.count) << what;
  auto bits = [](double d) {
    std::uint64_t u;
    std::memcpy(&u, &d, sizeof(u));
    return u;
  };
  EXPECT_EQ(bits(a.mean), bits(b.mean)) << what << ".mean";
  EXPECT_EQ(bits(a.stddev), bits(b.stddev)) << what << ".stddev";
  EXPECT_EQ(bits(a.min), bits(b.min)) << what << ".min";
  EXPECT_EQ(bits(a.max), bits(b.max)) << what << ".max";
  EXPECT_EQ(bits(a.ci95), bits(b.ci95)) << what << ".ci95";
}

constexpr ProtocolKind kAllProtocols[] = {
    ProtocolKind::Counter1Flooding, ProtocolKind::Ssaf,
    ProtocolKind::BlindFlooding,    ProtocolKind::Routeless,
    ProtocolKind::Aodv,             ProtocolKind::Gradient,
    ProtocolKind::Dsdv,             ProtocolKind::Dsr};

/// Registry entries outside the engine-internal des.* / pool.* / sim.*
/// families.
std::vector<obs::Metric> layer_metrics(const obs::MetricRegistry& reg) {
  std::vector<obs::Metric> out;
  for (obs::Metric& metric : reg.snapshot()) {
    if (metric.name.rfind("des.", 0) == 0 ||
        metric.name.rfind("pool.", 0) == 0 ||
        metric.name.rfind("sim.", 0) == 0) {
      continue;
    }
    out.push_back(std::move(metric));
  }
  return out;
}

void expect_same_metrics(const std::vector<obs::Metric>& got,
                         const std::vector<obs::Metric>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].name, want[i].name);
    EXPECT_EQ(got[i].kind, want[i].kind) << got[i].name;
    EXPECT_EQ(got[i].value, want[i].value) << got[i].name;
  }
}

/// small_scenario with more nodes, pairs and traffic, and fast random
/// waypoint mobility: busy enough that every duplicate cache a protocol
/// keeps records hits, except AODV's and DSR's route-error caches.
ScenarioConfig busy_scenario(ProtocolKind protocol) {
  ScenarioConfig config = small_scenario(protocol);
  config.nodes = 60;
  config.width_m = 900.0;
  config.height_m = 900.0;
  config.pairs = 6;
  config.cbr_interval = 0.2;
  config.traffic_stop = 15.0;
  config.sim_end = 20.0;
  config.mobility = true;
  config.mobility_min_speed_mps = 10.0;
  config.mobility_max_speed_mps = 30.0;
  config.mobility_pause_s = 0.5;
  return config;
}

/// Protocol-family totals (election.*, arbiter.*, net.dup_cache_*) that
/// busy_scenario reports, pinned per protocol. The reference walk takes its
/// protocol counters from accumulate_stats itself, so these fixed values are
/// what catch a protocol that stops reporting a cache, election or arbiter.
struct FamilyTotals {
  ProtocolKind kind;
  std::vector<std::pair<std::string, std::uint64_t>> totals;
};

const std::vector<FamilyTotals>& pinned_family_totals() {
  static const std::vector<FamilyTotals> pinned = {
      {ProtocolKind::Counter1Flooding,
       {{"election.armed", 15488}, {"election.cancelled_ack", 0},
        {"election.cancelled_duplicate", 0},
        {"election.cancelled_superseded", 0}, {"election.won", 15488},
        {"net.dup_cache_evictions", 0}, {"net.dup_cache_hits", 60234}}},
      {ProtocolKind::Ssaf,
       {{"election.armed", 15989}, {"election.cancelled_ack", 0},
        {"election.cancelled_duplicate", 3339},
        {"election.cancelled_superseded", 0}, {"election.won", 12650},
        {"net.dup_cache_evictions", 0}, {"net.dup_cache_hits", 53184}}},
      {ProtocolKind::BlindFlooding,
       {{"election.armed", 0}, {"election.cancelled_ack", 0},
        {"election.cancelled_duplicate", 0},
        {"election.cancelled_superseded", 0}, {"election.won", 0},
        {"net.dup_cache_evictions", 0}, {"net.dup_cache_hits", 58652}}},
      {ProtocolKind::Routeless,
       {{"arbiter.gave_up", 873}, {"arbiter.relays_heard", 3108},
        {"arbiter.retransmits", 4467}, {"arbiter.watches", 4520},
        {"election.armed", 11937}, {"election.cancelled_ack", 1289},
        {"election.cancelled_duplicate", 6324},
        {"election.cancelled_superseded", 0}, {"election.won", 4310},
        {"net.dup_cache_evictions", 0}, {"net.dup_cache_hits", 70677}}},
      {ProtocolKind::Aodv,
       {{"election.armed", 0}, {"election.cancelled_ack", 0},
        {"election.cancelled_duplicate", 0},
        {"election.cancelled_superseded", 0}, {"election.won", 0},
        {"net.dup_cache_evictions", 0}, {"net.dup_cache_hits", 98839}}},
      {ProtocolKind::Gradient,
       {{"net.dup_cache_evictions", 0}, {"net.dup_cache_hits", 24892}}},
      {ProtocolKind::Dsdv, {}},
      {ProtocolKind::Dsr,
       {{"net.dup_cache_evictions", 0}, {"net.dup_cache_hits", 11126}}},
  };
  return pinned;
}

TEST(Harvest, ProtocolFamilyTotalsArePinned) {
  for (const FamilyTotals& want : pinned_family_totals()) {
    SCOPED_TRACE(to_string(want.kind));
    const ScenarioResult result = run_scenario(busy_scenario(want.kind));
    std::vector<std::pair<std::string, std::uint64_t>> got;
    for (const obs::Metric& metric : result.metrics.snapshot()) {
      if (metric.name.rfind("election.", 0) == 0 ||
          metric.name.rfind("arbiter.", 0) == 0 ||
          metric.name.rfind("net.dup_cache_", 0) == 0) {
        got.emplace_back(metric.name, metric.value);
      }
    }
    EXPECT_EQ(got, want.totals);
  }
}

TEST(Harvest, StructSumsMatchPerNodeRegistryWalk) {
  for (const ProtocolKind kind : kAllProtocols) {
    SCOPED_TRACE(to_string(kind));
    SimInstance sim(small_scenario(kind));
    sim.run();
    const ScenarioResult result = sim.result();
    obs::MetricRegistry reference;
    rrnet::testing::reference_snapshot_metrics(sim.network(), reference);
    EXPECT_GT(reference.value(obs::metric::kPhySignalsArrived), 0u);
    expect_same_metrics(layer_metrics(result.metrics),
                        reference.snapshot());
    // Each family is present exactly when the protocol keeps it.
    const bool elects = kind == ProtocolKind::Counter1Flooding ||
                        kind == ProtocolKind::Ssaf ||
                        kind == ProtocolKind::BlindFlooding ||
                        kind == ProtocolKind::Routeless ||
                        kind == ProtocolKind::Aodv;
    EXPECT_EQ(result.metrics.contains(obs::metric::kElectionArmed), elects);
    EXPECT_EQ(result.metrics.contains(obs::metric::kArbiterWatches),
              kind == ProtocolKind::Routeless);
    EXPECT_EQ(result.metrics.contains(obs::metric::kNetDupCacheHits),
              kind != ProtocolKind::Dsdv);
  }
}

/// Everything a run reports, pool deltas included.
struct RunOutcome {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  double delay = 0.0;
  std::vector<obs::Metric> metrics;
};

RunOutcome run_outcome(const ScenarioConfig& config) {
  const ScenarioResult r = run_scenario(config);
  return {r.sent, r.delivered, r.mean_delay_s, r.metrics.snapshot()};
}

void expect_same_outcome(const RunOutcome& got, const RunOutcome& want) {
  EXPECT_EQ(got.sent, want.sent);
  EXPECT_EQ(got.delivered, want.delivered);
  EXPECT_EQ(got.delay, want.delay);
  expect_same_metrics(got.metrics, want.metrics);
}

TEST(Harvest, BackToBackRunsOnOneThreadMatchFreshThreads) {
  // Teardown returns every node's memory to this thread's pools in reverse
  // build order; the next scenario built on the thread must reproduce
  // what it reports on a thread of its own, pool deltas included.
  ScenarioConfig first = small_scenario(ProtocolKind::Ssaf);
  first.nodes = 120;
  first.width_m = 1200.0;
  first.height_m = 1200.0;
  ScenarioConfig second = small_scenario(ProtocolKind::Routeless);
  second.seed = 29;
  const auto on_fresh_thread = [](const ScenarioConfig& config) {
    RunOutcome out;
    std::thread([&] { out = run_outcome(config); }).join();
    return out;
  };
  const RunOutcome first_fresh = on_fresh_thread(first);
  const RunOutcome second_fresh = on_fresh_thread(second);
  RunOutcome first_shared, second_shared, first_again;
  std::thread([&] {
    first_shared = run_outcome(first);
    second_shared = run_outcome(second);
    first_again = run_outcome(first);
  }).join();
  expect_same_outcome(first_shared, first_fresh);
  expect_same_outcome(second_shared, second_fresh);
  expect_same_outcome(first_again, first_fresh);
}

TEST(Harvest, RebuiltScenarioGetsAscendingNodeMemory) {
  // Nodes are destroyed in the reverse of the order they were built in,
  // so a scenario rebuilt on the same thread takes its node stacks from
  // the freed chunks in ascending address order, as from a fresh carve.
  const ScenarioConfig config = small_scenario(ProtocolKind::Ssaf);
  std::thread([&] {
    for (int build = 0; build < 3; ++build) {
      SimInstance sim(config);
      sim.run();
      std::vector<const void*> nodes;
      std::vector<const void*> radios;
      sim.network().for_each_node([&](net::Node& node) {
        nodes.push_back(&node);
        radios.push_back(&node.mac().radio());
      });
      ASSERT_EQ(nodes.size(), sim.network().nodes_built());
      ASSERT_GT(nodes.size(), 2u);
      for (std::size_t i = 1; i < nodes.size(); ++i) {
        EXPECT_LT(nodes[i - 1], nodes[i]) << "build " << build;
        EXPECT_LT(radios[i - 1], radios[i]) << "build " << build;
      }
    }
  }).join();
}

/// Whole-scenario serial results, pinned. The serial==sharded gates compare
/// two engines that share one world builder, so they cannot see a change
/// that moves both the same way; these fixed values can.
struct PinnedRun {
  const char* name;
  ScenarioConfig config;
  std::uint64_t sent;
  std::uint64_t delivered;
  std::uint64_t mac_packets;
  std::uint64_t mean_delay_bits;
  std::uint64_t total_energy_bits;
  /// FNV-1a over (name, value) of every entry outside des.* / pool.* / sim.*.
  std::uint64_t metrics_hash;
};

std::uint64_t semantic_metrics_hash(const obs::MetricRegistry& reg) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](const void* data, std::size_t len) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < len; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ULL;
    }
  };
  for (const obs::Metric& metric : reg.snapshot()) {
    if (metric.name.rfind("des.", 0) == 0 ||
        metric.name.rfind("pool.", 0) == 0 ||
        metric.name.rfind("sim.", 0) == 0) {
      continue;
    }
    mix(metric.name.data(), metric.name.size());
    mix(&metric.value, sizeof(metric.value));
  }
  return h;
}

std::vector<PinnedRun> pinned_runs() {
  std::vector<PinnedRun> runs;
  {
    ScenarioConfig c = small_scenario(ProtocolKind::Ssaf);
    c.nodes = 50;
    c.width_m = 900.0;
    c.height_m = 900.0;
    c.require_connected_pairs = true;
    c.min_pair_hops = 3;
    runs.push_back({"ssaf_connected_pairs", c, 14, 10, 395,
                    0x3f94d11a2bb92173, 0x0, 0xe255b1ecdb8ad0ea});
  }
  {
    ScenarioConfig c = small_scenario(ProtocolKind::Routeless);
    c.bidirectional = true;
    runs.push_back({"routeless_bidirectional", c, 28, 28, 151,
                    0x3f80b378b3908eae, 0x0, 0x426dfffb7a488af7});
  }
  {
    ScenarioConfig c = small_scenario(ProtocolKind::Counter1Flooding);
    c.failure_fraction = 0.3;
    c.failure_cycle_s = 2.0;
    c.track_energy = true;
    runs.push_back({"failures_energy", c, 14, 14, 205, 0x3f70b31d2c090192,
                    0x40243eda3db452ca, 0x22bacaad737b7891});
  }
  {
    ScenarioConfig c = small_scenario(ProtocolKind::Aodv);
    c.mobility = true;
    c.mobility_min_speed_mps = 10.0;
    c.mobility_max_speed_mps = 30.0;
    c.propagation = PropagationKind::Rayleigh;
    runs.push_back({"mobility_rayleigh", c, 14, 8, 5063,
                    0x3fdcfacfa7938060, 0x0, 0xf588362d5f0c8b45});
  }
  {
    ScenarioConfig c = small_scenario(ProtocolKind::Dsr);
    c.explicit_pairs = {{0, 7}, {12, 3}};
    c.explicit_pair_intervals = {0.25, 0.0};
    c.trace_paths = true;
    runs.push_back({"explicit_pairs_traced", c, 35, 35, 170,
                    0x3f6c05ebe46be6d8, 0x0, 0x38befb38adeadb19});
  }
  return runs;
}

TEST(SerialResults, PinnedAcrossScenarioShapes) {
  for (const PinnedRun& want : pinned_runs()) {
    SCOPED_TRACE(want.name);
    SimInstance sim(want.config);
    sim.run();
    const ScenarioResult r = sim.result();
    const auto bits = [](double d) {
      std::uint64_t u;
      std::memcpy(&u, &d, sizeof(u));
      return u;
    };
    EXPECT_GT(r.delivered, 0u);
    EXPECT_EQ(r.sent, want.sent);
    EXPECT_EQ(r.delivered, want.delivered);
    EXPECT_EQ(r.mac_packets, want.mac_packets);
    EXPECT_EQ(bits(r.mean_delay_s), want.mean_delay_bits);
    EXPECT_EQ(bits(r.total_energy_j), want.total_energy_bits);
    EXPECT_EQ(semantic_metrics_hash(r.metrics), want.metrics_hash);
  }
}

/// Event counts of the pinned runs (plus a busier SSAF and Routeless
/// Routing scenario) on an engine that re-pushed every broadcast walker
/// step through the queue. Every step taken in place is one of those
/// events, so executed + in-place must reproduce them exactly.
TEST(SerialResults, InPlaceStepsAreEventsOfTheQueueOnlyEngine) {
  std::vector<std::pair<std::string, ScenarioConfig>> runs;
  for (const PinnedRun& run : pinned_runs()) {
    runs.emplace_back(run.name, run.config);
  }
  runs.emplace_back("ssaf_busy", busy_scenario(ProtocolKind::Ssaf));
  runs.emplace_back("routeless_busy", busy_scenario(ProtocolKind::Routeless));
  const std::vector<std::pair<std::string, std::uint64_t>> queue_only = {
      {"ssaf_connected_pairs", 40730},  {"routeless_bidirectional", 10255},
      {"failures_energy", 14542},       {"mobility_rayleigh", 322475},
      {"explicit_pairs_traced", 11212}, {"ssaf_busy", 1689741},
      {"routeless_busy", 1704703}};
  ASSERT_EQ(runs.size(), queue_only.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    SCOPED_TRACE(runs[i].first);
    ASSERT_EQ(runs[i].first, queue_only[i].first);
    const ScenarioResult r = run_scenario(runs[i].second);
    const std::uint64_t in_place =
        r.metrics.value(obs::metric::kDesInlineAdvances);
    EXPECT_GT(in_place, 0u);
    EXPECT_EQ(r.events_executed + in_place, queue_only[i].second);
  }
}

/// A step() loop up to sim_end — the traced benchmark loop — folds exactly
/// what run_until(sim_end) folds, so it gives the same result and counts.
TEST(SimInstance, StepLoopMatchesRunUntil) {
  for (const ProtocolKind kind :
       {ProtocolKind::Ssaf, ProtocolKind::Routeless}) {
    SCOPED_TRACE(to_string(kind));
    const ScenarioConfig config = small_scenario(kind);
    SimInstance whole(config);
    whole.run_until(config.sim_end);
    SimInstance stepped(config);
    stepped.run_until(0.0);
    des::Scheduler& sched = stepped.scheduler();
    while (sched.next_event_time() <= config.sim_end) sched.step();
    stepped.run_until(config.sim_end);

    const ScenarioResult a = whole.result();
    const ScenarioResult b = stepped.result();
    EXPECT_EQ(b.sent, a.sent);
    EXPECT_EQ(b.delivered, a.delivered);
    EXPECT_EQ(b.mac_packets, a.mac_packets);
    EXPECT_EQ(std::memcmp(&b.mean_delay_s, &a.mean_delay_s, sizeof(double)),
              0);
    EXPECT_EQ(semantic_metrics_hash(b.metrics),
              semantic_metrics_hash(a.metrics));
    EXPECT_EQ(b.events_executed, a.events_executed);
    EXPECT_GT(b.metrics.value(obs::metric::kDesInlineAdvances), 0u);
    EXPECT_EQ(b.metrics.value(obs::metric::kDesInlineAdvances),
              a.metrics.value(obs::metric::kDesInlineAdvances));
  }
}

/// Everything a run reports that must not depend on when its nodes were
/// built: the semantic metrics, the counts, the delay and energy bits and
/// the executed and in-place event counts.
void expect_same_semantics(const ScenarioResult& got,
                           const ScenarioResult& want) {
  EXPECT_EQ(got.sent, want.sent);
  EXPECT_EQ(got.delivered, want.delivered);
  EXPECT_EQ(got.mac_packets, want.mac_packets);
  EXPECT_EQ(got.channel_transmissions, want.channel_transmissions);
  EXPECT_EQ(std::memcmp(&got.mean_delay_s, &want.mean_delay_s, sizeof(double)),
            0);
  EXPECT_EQ(
      std::memcmp(&got.total_energy_j, &want.total_energy_j, sizeof(double)),
      0);
  expect_same_metrics(layer_metrics(got.metrics), layer_metrics(want.metrics));
  EXPECT_EQ(got.events_executed, want.events_executed);
  EXPECT_EQ(got.metrics.value(obs::metric::kDesInlineAdvances),
            want.metrics.value(obs::metric::kDesInlineAdvances));
}

/// Many nodes, few reached: one SSAF pair whose floods die at a short TTL
/// on a terrain far larger than the flood.
ScenarioConfig sparse_ssaf_scenario() {
  ScenarioConfig config = small_scenario(ProtocolKind::Ssaf);
  config.nodes = 1500;
  config.width_m = 5000.0;
  config.height_m = 5000.0;
  config.pairs = 1;
  config.require_connected_pairs = true;
  config.min_pair_hops = 2;
  config.flood_ttl = 4;
  config.traffic_stop = 4.0;
  config.sim_end = 6.0;
  return config;
}

TEST(FirstContact, BuildingEveryNodeUpFrontChangesNothing) {
  // The traced benchmark loop asks for every node before run(); nodes are
  // then built in id order before t = 0 instead of at first contact.
  std::vector<ScenarioConfig> configs;
  for (const ProtocolKind kind : kAllProtocols) {
    configs.push_back(busy_scenario(kind));
  }
  ScenarioConfig failing = small_scenario(ProtocolKind::Routeless);
  failing.failure_fraction = 0.3;
  failing.track_energy = true;
  configs.push_back(failing);
  configs.push_back(sparse_ssaf_scenario());
  for (const ScenarioConfig& config : configs) {
    SCOPED_TRACE(std::string(to_string(config.protocol)) + " n=" +
                 std::to_string(config.nodes));
    SimInstance lazy(config);
    lazy.run();
    SimInstance eager(config);
    for (std::uint32_t id = 0; id < eager.network().size(); ++id) {
      (void)eager.network().node(id);
    }
    EXPECT_EQ(eager.network().nodes_built(), config.nodes);
    eager.run();
    expect_same_semantics(eager.result(), lazy.result());
  }
}

TEST(FirstContact, SparseFloodBuildsEndpointsAndNodesThatHeardASignal) {
  const ScenarioConfig config = sparse_ssaf_scenario();
  SimInstance lazy(config);
  lazy.run();
  SimInstance eager(config);
  for (std::uint32_t id = 0; id < eager.network().size(); ++id) {
    (void)eager.network().node(id);
  }
  eager.run();
  std::vector<bool> endpoint(config.nodes, false);
  for (const auto& [src, dst] : lazy.pairs()) {
    endpoint[src] = true;
    endpoint[dst] = true;
  }
  std::uint64_t expected = 0;
  for (std::uint32_t id = 0; id < config.nodes; ++id) {
    const bool heard =
        eager.network().channel().transceiver(id).stats().signals_arrived > 0;
    const bool wanted = endpoint[id] || heard;
    EXPECT_EQ(lazy.network().node_built(id), wanted) << id;
    expected += wanted ? 1 : 0;
  }
  EXPECT_EQ(lazy.network().nodes_built(), expected);
  EXPECT_GT(expected, 2u);                // the floods reached someone
  EXPECT_LT(expected, config.nodes / 2);  // ... but not most nodes
  const ScenarioResult result = lazy.result();
  EXPECT_GT(result.sent, 0u);
  EXPECT_EQ(result.metrics.value(obs::metric::kSimNodesBuilt), expected);
}

TEST(FirstContact, ProactiveProtocolBuildsAndStartsEveryNodeAtTimeZero) {
  const ScenarioConfig config = small_scenario(ProtocolKind::Dsdv);
  SimInstance sim(config);
  EXPECT_EQ(sim.network().nodes_built(), config.nodes);
  // Every node's first periodic dump falls before one update interval.
  sim.run_until(config.dsdv.update_interval);
  for (std::uint32_t id = 0; id < config.nodes; ++id) {
    EXPECT_GT(sim.network().node(id).stats().control_tx, 0u) << id;
  }
}

TEST(FirstContact, NodesBuiltReachMetricsAndReport) {
  ScenarioConfig config = sparse_ssaf_scenario();
  obs::RunHealthMonitor monitor;
  config.health_monitor = &monitor;
  SimInstance sim(config);
  sim.run();
  const std::uint64_t built = sim.network().nodes_built();
  EXPECT_EQ(sim.result().metrics.value(obs::metric::kSimNodesBuilt), built);
  EXPECT_EQ(monitor.nodes_built(), built);
  const std::string path = ::testing::TempDir() + "rrnet_nodes_built.json";
  ASSERT_TRUE(monitor.write_report_json(path));
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_NE(buffer.str().find("\"nodes_built\": " + std::to_string(built)),
            std::string::npos);
  std::remove(path.c_str());

  // Summed over shards.
  config.shards = 2;
  const ScenarioResult sharded = run_scenario_sharded(config);
  EXPECT_EQ(sharded.metrics.value(obs::metric::kSimNodesBuilt), built);
  EXPECT_EQ(monitor.nodes_built(), built);
}

TEST(Replication, ParallelIsBitIdenticalToSerial) {
  const ScenarioConfig base = small_scenario(ProtocolKind::Ssaf);
  const Aggregated serial = run_replications(base, 4, /*threads=*/1);
  const Aggregated parallel = run_replications(base, 4, /*threads=*/4);
  expect_bit_identical(serial.delivery_ratio, parallel.delivery_ratio,
                       "delivery_ratio");
  expect_bit_identical(serial.delay_s, parallel.delay_s, "delay_s");
  expect_bit_identical(serial.hops, parallel.hops, "hops");
  expect_bit_identical(serial.mac_packets, parallel.mac_packets,
                       "mac_packets");
  expect_bit_identical(serial.mac_per_delivered, parallel.mac_per_delivered,
                       "mac_per_delivered");
  EXPECT_EQ(serial.replications, 4u);
}

TEST(Replication, AdjacentBaseSeedsDoNotShareReplications) {
  // Regression for the base.seed + i overlap: with additive seeding, base
  // seed 1 replication 2 and base seed 3 replication 0 were the SAME run.
  ScenarioConfig a = small_scenario(ProtocolKind::Ssaf);
  a.seed = 1;
  ScenarioConfig b = a;
  b.seed = 3;
  const Aggregated agg_a = run_replications(a, 4, /*threads=*/2);
  const Aggregated agg_b = run_replications(b, 4, /*threads=*/2);
  // Identical replication sets would make every aggregate coincide; the
  // mac_packets totals are fine-grained enough to distinguish real runs.
  EXPECT_NE(agg_a.mac_packets.mean, agg_b.mac_packets.mean);
}

TEST(Replication, SummariesCoverAllReplications) {
  const Aggregated agg =
      run_replications(small_scenario(ProtocolKind::Ssaf), 3, 3);
  EXPECT_EQ(agg.delivery_ratio.count, 3u);
  EXPECT_EQ(agg.mac_packets.count, 3u);
  EXPECT_GT(agg.mac_packets.mean, 0.0);
}

TEST(Sweep, BuildsLabeledTable) {
  SweepSpec spec;
  spec.x_label = "interval_s";
  spec.x_values = {1.0, 2.0};
  spec.replications = 1;
  ScenarioConfig base = small_scenario(ProtocolKind::Ssaf);
  Sweep sweep(spec, base);
  sweep.run("ssaf", ProtocolKind::Ssaf, [](ScenarioConfig& c, double x) {
    c.cbr_interval = x;
  });
  const util::Table table = sweep.table();
  EXPECT_EQ(table.rows(), 2u);
  // x + 4 paper metrics + 4 observability counters per series.
  EXPECT_EQ(table.columns(), 9u);
  EXPECT_DOUBLE_EQ(std::get<double>(table.at(0, 0)), 1.0);
  EXPECT_GT(std::get<double>(table.at(0, 1)), 0.0);  // delivery ratio
  // SSAF arms an election per received flood copy; the elec_won counter
  // must be live (relays happened, so someone won).
  EXPECT_GT(std::get<double>(table.at(0, 8)), 0.0);
}

}  // namespace
}  // namespace rrnet::sim
