// Tests of the benchmark's own helpers.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <queue>
#include <regex>
#include <set>
#include <sstream>
#include <string>

#include "bench_lib.hpp"

namespace {

using namespace rrbench;

/// Reference hop distance: BFS over the brute-force O(n^2) disk graph
/// (-1 when unreachable).
int hop_distance(const std::vector<geom::Vec2>& positions, double range_m,
                 std::uint32_t src, std::uint32_t dst) {
  std::vector<int> depth(positions.size(), -1);
  std::queue<std::uint32_t> frontier;
  depth[src] = 0;
  frontier.push(src);
  while (!frontier.empty()) {
    const std::uint32_t u = frontier.front();
    frontier.pop();
    for (std::uint32_t v = 0; v < positions.size(); ++v) {
      const double dx = positions[u].x - positions[v].x;
      const double dy = positions[u].y - positions[v].y;
      if (depth[v] < 0 && dx * dx + dy * dy <= range_m * range_m) {
        depth[v] = depth[u] + 1;
        frontier.push(v);
      }
    }
  }
  return depth[dst];
}

/// Nodes on a line 200 m apart with a 250 m radio: node i reaches exactly
/// i - 1 and i + 1, so the hop distance between i and j is |i - j|.
std::vector<geom::Vec2> line_layout(std::size_t n) {
  std::vector<geom::Vec2> positions;
  for (std::size_t i = 0; i < n; ++i) {
    positions.push_back({50.0 + 200.0 * static_cast<double>(i), 50.0});
  }
  return positions;
}

TEST(PairPicker, LineLayoutPairsAreExactlyTheRequestedHopsApart) {
  const auto positions = line_layout(20);
  const geom::Terrain terrain(4000.0, 100.0);
  for (const int hops : {1, 3, 7}) {
    des::Rng rng(42);
    const auto pairs =
        pick_pairs_at_hops(positions, terrain, 250.0, hops, 25, rng);
    ASSERT_EQ(pairs.size(), 25u);
    for (const auto& [src, dst] : pairs) {
      EXPECT_EQ(std::abs(static_cast<int>(src) - static_cast<int>(dst)), hops);
      EXPECT_EQ(hop_distance(positions, 250.0, src, dst), hops);
    }
  }
}

TEST(PairPicker, ShortcutsCountAsTheShortestPath) {
  // 0-1-2-3 along the bottom, 200 m apart, and node 4 above the middle,
  // 335 m from both 0 and 3: with a 340 m radio 0 and 3 are 2 hops apart
  // through 4 (and 3 hops along the bottom), so no pair is 3 hops apart.
  const std::vector<geom::Vec2> positions = {{10.0, 10.0},  {210.0, 10.0},
                                             {410.0, 10.0}, {610.0, 10.0},
                                             {310.0, 160.0}};
  const geom::Terrain terrain(700.0, 700.0);
  ASSERT_EQ(hop_distance(positions, 340.0, 0, 3), 2);
  des::Rng rng(3);
  for (const auto& [src, dst] :
       pick_pairs_at_hops(positions, terrain, 340.0, 2, 50, rng)) {
    EXPECT_EQ(hop_distance(positions, 340.0, src, dst), 2);
  }
  EXPECT_TRUE(
      pick_pairs_at_hops(positions, terrain, 340.0, 3, 5, rng, 0.0, 100)
          .empty());
}

TEST(PairPicker, SourcesKeepTheEdgeMargin) {
  const auto positions = line_layout(20);  // x from 50 to 3850
  const geom::Terrain terrain(3900.0, 3900.0);
  des::Rng rng(5);
  // y = 50 for every node: a 100 m margin excludes all of them.
  EXPECT_TRUE(
      pick_pairs_at_hops(positions, terrain, 250.0, 2, 3, rng, 100.0, 200)
          .empty());
  const geom::Terrain tall(3900.0, 100.0);
  for (const auto& [src, dst] :
       pick_pairs_at_hops(positions, tall, 250.0, 2, 20, rng, 40.0)) {
    EXPECT_GE(positions[src].x, 40.0);
    EXPECT_LE(positions[src].x, 3900.0 - 40.0);
    (void)dst;
  }
}

TEST(PairPicker, NoNodeAtThatDepthGivesFewerPairs) {
  const auto positions = line_layout(4);  // at most 3 hops apart
  const geom::Terrain terrain(1000.0, 100.0);
  des::Rng rng(1);
  EXPECT_TRUE(
      pick_pairs_at_hops(positions, terrain, 250.0, 5, 3, rng, 0.0, 50)
                  .empty());
}

TEST(PairPicker, SameSeedSamePairs) {
  const auto positions = line_layout(30);
  const geom::Terrain terrain(7000.0, 100.0);
  des::Rng a(9);
  des::Rng b(9);
  EXPECT_EQ(pick_pairs_at_hops(positions, terrain, 250.0, 4, 10, a),
            pick_pairs_at_hops(positions, terrain, 250.0, 4, 10, b));
}

sim::ScenarioResult sample_result() {
  sim::ScenarioResult r;
  r.sent = 40;
  r.delivered = 39;
  r.mean_delay_s = 0.125;
  r.mean_hops = 7.5;
  r.metrics.add("phy.transmissions", 1000);
  r.metrics.add("mac.retries", 3);
  r.metrics.add("net.tx_control", 12);
  r.metrics.add("election.won", 80);
  r.metrics.add("arbiter.retransmits", 2);
  r.metrics.add("des.events_executed", 123456);
  r.metrics.add("pool.object_allocs", 77);
  return r;
}

TEST(Fingerprint, RepeatsAndIgnoresEngineInternalCounters) {
  const sim::ScenarioResult a = sample_result();
  EXPECT_EQ(fingerprint(a), fingerprint(sample_result()));

  sim::ScenarioResult b = sample_result();
  b.events_executed = 999;
  b.metrics.add("des.events_executed", 5000);
  b.metrics.set_max("des.heap_high_water", 64);
  b.metrics.add("pool.object_heap_allocs", 3);
  b.metrics.add("sim.node_migrations", 1);
  b.metrics.add("shard.rounds", 100);
  b.metrics.add("runtime.execute_ns", 1000000);
  EXPECT_EQ(fingerprint(a), fingerprint(b));
}

TEST(Fingerprint, ChangesWithEverySemanticOutput) {
  const std::uint64_t base = fingerprint(sample_result());
  std::set<std::uint64_t> seen{base};
  const auto expect_new = [&](const sim::ScenarioResult& r) {
    EXPECT_TRUE(seen.insert(fingerprint(r)).second);
  };
  sim::ScenarioResult r = sample_result();
  r.sent += 1;
  expect_new(r);
  r = sample_result();
  r.delivered -= 1;
  expect_new(r);
  r = sample_result();
  r.mean_delay_s += 1e-12;
  expect_new(r);
  r = sample_result();
  r.mean_hops += 0.5;
  expect_new(r);
  for (const char* name : {"phy.transmissions", "mac.retries",
                           "net.tx_control", "election.won",
                           "arbiter.retransmits", "phy.drop_collision"}) {
    r = sample_result();
    r.metrics.add(name, 1);
    expect_new(r);
  }
}

TEST(MetricNames, EveryEmittedNameIsValid) {
  // run.py emits exactly the workload and metric names BENCHMARK.json
  // declares; each must match [A-Za-z0-9_.-]+, start with a letter or a
  // digit and be at most 64 characters long.
  std::ifstream file(RRBENCH_SPEC);
  ASSERT_TRUE(file.good()) << RRBENCH_SPEC;
  std::stringstream text;
  text << file.rdbuf();
  const std::string spec = text.str();
  const std::regex entry("\"name\":\\s*\"([^\"]*)\"");
  const std::regex valid("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
  std::set<std::string> names;
  for (auto it = std::sregex_iterator(spec.begin(), spec.end(), entry);
       it != std::sregex_iterator(); ++it) {
    const std::string name = (*it)[1];
    EXPECT_TRUE(std::regex_match(name, valid)) << name;
    EXPECT_TRUE(names.insert(name).second) << "duplicate " << name;
  }
  EXPECT_GT(names.size(), 50u);
  for (const char* name : {"rr_2k", "ssaf_1m", "setup_s", "run_s", "wall_s",
                           "peak_rss_mib", "trace.overhead_pct"}) {
    EXPECT_TRUE(names.count(name)) << name;
  }
  for (const Workload& w : workloads()) {
    EXPECT_TRUE(std::regex_match(std::string(w.name), valid)) << w.name;
  }
}

TEST(Workloads, EveryConfigFieldTheWorkloadsRelyOnIsExplicit) {
  const Workload* serial = find_workload("rr_2k");
  const Workload* sharded = find_workload("rr_2k_k4");
  ASSERT_NE(serial, nullptr);
  ASSERT_NE(sharded, nullptr);
  const sim::ScenarioConfig a = make_config(*serial, 7);
  const sim::ScenarioConfig b = make_config(*sharded, 7);
  EXPECT_EQ(a.protocol, sim::ProtocolKind::Routeless);
  EXPECT_EQ(a.shards, 1u);
  EXPECT_EQ(b.shards, 4u);
  EXPECT_EQ(b.shard_threads, 4u);
  EXPECT_TRUE(b.profile_runtime);
  EXPECT_EQ(a.explicit_pairs.size(), 10u);
  EXPECT_EQ(a.explicit_pairs, b.explicit_pairs);  // same seed, same pairs
  EXPECT_EQ(find_workload("nope"), nullptr);
}

}  // namespace
