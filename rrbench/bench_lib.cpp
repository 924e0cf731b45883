#include "bench_lib.hpp"

#include <algorithm>
#include <bit>

#include "geom/placement.hpp"
#include "geom/spatial_grid.hpp"

namespace rrbench {

namespace {

// Workload table. Why each exists is in README.md. The _k4 twins run the
// same scenario (same seed, same pairs) on 4 shards with 4 threads.
//  - rr_2k / rr_2k_k4: Figure 3's radio, MAC and traffic (2 Mb/s,
//    bidirectional 256 B CBR every 2 s, free space, 250 m) at Figure 3's
//    density, 125 nodes/km^2: n = 2000 on 4000 x 4000 m, 10 pairs.
//  - ssaf_1m / ssaf_1m_k4: Figure 1's radio and traffic (1 Mb/s, 64 B) at
//    Figure 1's density, 100 nodes/km^2: n = 10^6 on 100 x 100 km. Endpoints
//    sit 12 hops apart, well inside the flood TTL of 32, so every flood
//    delivers.
//    Sources keep 32 hops of range from every edge, so no flood is cut
//    short by the terrain and each costs about the same.
// A CBR source sends first at a uniform time in [1 s, 1 s + interval), then
// every interval until traffic_stop; with traffic_stop = 1 s + k * interval
// every source sends exactly k packets, whatever the seed.
const std::vector<Workload> kWorkloads = {
    {"rr_2k", sim::ProtocolKind::Routeless, 2000, 4000.0, 10, 8, 0.0, true,
     2e6, 256, 2.0, 5.0, 7.0, 1, 1},
    {"rr_2k_k4", sim::ProtocolKind::Routeless, 2000, 4000.0, 10, 8, 0.0, true,
     2e6, 256, 2.0, 5.0, 7.0, 4, 4},
    {"ssaf_1m", sim::ProtocolKind::Ssaf, 1000000, 100000.0, 2, 12,
     32 * 250.0, false, 1e6, 64, 2.0, 3.0, 4.0, 1, 1},
    {"ssaf_1m_k4", sim::ProtocolKind::Ssaf, 1000000, 100000.0, 2, 12,
     32 * 250.0, false, 1e6, 64, 2.0, 3.0, 4.0, 4, 4},
};

constexpr double kRangeM = 250.0;

void fnv_mix(std::uint64_t& h, const void* data, std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
}

void fnv_u64(std::uint64_t& h, std::uint64_t v) { fnv_mix(h, &v, sizeof(v)); }

bool is_semantic_metric(std::string_view name) {
  for (const std::string_view prefix :
       {"phy.", "mac.", "net.", "election.", "arbiter."}) {
    if (name.starts_with(prefix)) return true;
  }
  return false;
}

}  // namespace

const std::vector<Workload>& workloads() { return kWorkloads; }

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<geom::Vec2> builder_positions(const sim::ScenarioConfig& config) {
  const geom::Terrain terrain(config.width_m, config.height_m);
  des::Rng placement = des::Rng(config.seed).fork("placement");
  return geom::place_uniform(terrain, config.nodes, placement);
}

namespace {

/// Breadth-first search from `src` through radius queries, up to depth
/// `max_hops`. Calls visit(id, depth) for every reached node.
template <typename Visit>
void bfs(const geom::SpatialGrid& grid, double range_m, std::uint32_t src,
         int max_hops, std::vector<int>& depth, Visit&& visit) {
  std::vector<std::uint32_t> frontier{src};
  std::vector<std::uint32_t> next;
  std::vector<std::uint32_t> touched{src};
  std::vector<std::uint32_t> near;
  depth[src] = 0;
  visit(src, 0);
  for (int d = 1; d <= max_hops && !frontier.empty(); ++d) {
    next.clear();
    for (const std::uint32_t u : frontier) {
      grid.query(grid.position(u), range_m, near);
      for (const std::uint32_t v : near) {
        if (depth[v] >= 0) continue;
        depth[v] = d;
        touched.push_back(v);
        next.push_back(v);
        visit(v, d);
      }
    }
    frontier.swap(next);
  }
  for (const std::uint32_t id : touched) depth[id] = -1;
}

}  // namespace

std::vector<Pair> pick_pairs_at_hops(const std::vector<geom::Vec2>& positions,
                                     const geom::Terrain& terrain,
                                     double range_m, int hops,
                                     std::size_t count, des::Rng& rng,
                                     double margin_m, std::size_t max_draws) {
  std::vector<Pair> pairs;
  if (positions.size() < 2 || hops < 1) return pairs;
  const geom::SpatialGrid grid(terrain, range_m, positions);
  std::vector<int> depth(positions.size(), -1);
  std::vector<std::uint32_t> ring;
  std::size_t misses = 0;
  while (pairs.size() < count && misses < max_draws) {
    const auto src = static_cast<std::uint32_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(positions.size()) - 1));
    const geom::Vec2 p = positions[src];
    if (p.x < margin_m || p.y < margin_m ||
        p.x > terrain.width() - margin_m || p.y > terrain.height() - margin_m) {
      ++misses;
      continue;
    }
    ring.clear();
    bfs(grid, range_m, src, hops, depth, [&](std::uint32_t id, int d) {
      if (d == hops) ring.push_back(id);
    });
    if (ring.empty()) {
      ++misses;
      continue;
    }
    misses = 0;
    const auto pick = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(ring.size()) - 1));
    pairs.emplace_back(src, ring[pick]);
  }
  return pairs;
}

sim::ScenarioConfig make_config(const Workload& w, std::uint64_t seed) {
  sim::ScenarioConfig c;
  c.seed = seed;
  c.protocol = w.protocol;
  c.nodes = w.nodes;
  c.width_m = w.side_m;
  c.height_m = w.side_m;
  c.range_m = kRangeM;
  c.propagation = sim::PropagationKind::FreeSpace;
  c.radio.bitrate_bps = w.bitrate_bps;
  c.flood_ttl = 32;
  c.routeless = proto::RoutelessConfig{};
  c.ssaf = proto::SsafConfig{};
  c.pairs = w.pairs;
  c.bidirectional = w.bidirectional;
  c.cbr_interval = w.cbr_interval_s;
  c.payload_bytes = w.payload_bytes;
  c.traffic_start = 1.0;
  c.traffic_stop = w.traffic_stop_s;
  c.sim_end = w.sim_end_s;
  c.require_connected_pairs = false;
  c.failure_fraction = 0.0;
  c.mobility = false;
  c.track_energy = false;
  c.trace_paths = false;
  c.trace_events = false;
  c.shards = w.shards;
  c.shard_threads = w.shard_threads;
  c.profile_runtime = w.shards > 1;

  const geom::Terrain terrain(c.width_m, c.height_m);
  des::Rng pair_rng = des::Rng(seed).fork("rrbench.pairs");
  c.explicit_pairs = pick_pairs_at_hops(builder_positions(c), terrain, kRangeM,
                                        w.pair_hops, w.pairs, pair_rng,
                                        w.source_margin_m);
  return c;
}

std::uint64_t fingerprint(const sim::ScenarioResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  fnv_u64(h, r.sent);
  fnv_u64(h, r.delivered);
  const double delivered = static_cast<double>(r.delivered);
  fnv_u64(h, std::bit_cast<std::uint64_t>(r.mean_delay_s * delivered));
  fnv_u64(h, std::bit_cast<std::uint64_t>(r.mean_hops * delivered));
  for (const obs::Metric& m : r.metrics.snapshot()) {
    if (!is_semantic_metric(m.name)) continue;
    fnv_mix(h, m.name.data(), m.name.size());
    fnv_u64(h, m.value);
  }
  return h;
}

}  // namespace rrbench
