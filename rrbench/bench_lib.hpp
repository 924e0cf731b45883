// Helpers of the rrnet benchmark binary (rrbench.cpp), kept apart so
// bench_lib_test.cpp can check them: the workload table, the bounded-hop
// pair picker and the correctness fingerprint.
#pragma once

#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "des/rng.hpp"
#include "geom/terrain.hpp"
#include "geom/vec2.hpp"
#include "sim/scenario.hpp"

namespace rrbench {

namespace des = rrnet::des;
namespace geom = rrnet::geom;
namespace obs = rrnet::obs;
namespace proto = rrnet::proto;
namespace sim = rrnet::sim;

using Pair = std::pair<std::uint32_t, std::uint32_t>;

/// One benchmark workload: the scenario it runs and how its traffic
/// endpoints are chosen. Every ScenarioConfig field the workload relies on
/// is set explicitly by make_config(); nothing is inherited from the
/// figure helpers in bench/bench_common.hpp.
struct Workload {
  std::string_view name;
  sim::ProtocolKind protocol;
  std::size_t nodes;
  double side_m;        ///< square terrain side
  std::size_t pairs;    ///< CBR pairs (bidirectional or not, see config)
  int pair_hops;        ///< BFS hop distance between the two endpoints
  double source_margin_m;  ///< sources at least this far from every edge
  bool bidirectional;
  double bitrate_bps;
  std::uint32_t payload_bytes;
  double cbr_interval_s;
  double traffic_stop_s;  ///< traffic starts at 1 s
  double sim_end_s;       ///< traffic_stop plus drain time
  std::uint32_t shards;   ///< 1 = serial SimInstance, else sharded engine
  std::uint32_t shard_threads;
};

/// The workload table (rr_2k, ssaf_1m and their 4-shard twins rr_2k_k4,
/// ssaf_1m_k4); null when unknown.
[[nodiscard]] const Workload* find_workload(std::string_view name);
[[nodiscard]] const std::vector<Workload>& workloads();

/// Node positions exactly as the scenario builder generates them for
/// `config` (Rng(seed).fork("placement") + place_uniform).
[[nodiscard]] std::vector<geom::Vec2> builder_positions(
    const sim::ScenarioConfig& config);

/// Draw `count` (source, destination) pairs whose shortest path in the unit
/// disk graph of radius `range_m` is exactly `hops` hops. Sources are drawn
/// uniformly among the nodes at least `margin_m` from every terrain edge;
/// the destination is drawn uniformly among the nodes a BFS from the source
/// reaches at depth `hops` (sources with none are redrawn).
/// The BFS expands through geom::SpatialGrid radius queries, so the cost is
/// the size of the `hops`-hop ball, never O(n^2). Returns fewer pairs only
/// when `max_draws` sources in a row had no node at that depth.
[[nodiscard]] std::vector<Pair> pick_pairs_at_hops(
    const std::vector<geom::Vec2>& positions, const geom::Terrain& terrain,
    double range_m, int hops, std::size_t count, des::Rng& rng,
    double margin_m = 0.0, std::size_t max_draws = 10000);

/// The full scenario of `workload` at `seed`, endpoints included.
[[nodiscard]] sim::ScenarioConfig make_config(const Workload& workload,
                                              std::uint64_t seed);

/// 64-bit FNV-1a over every semantic output of a run: sent, delivered, the
/// delay and hop sums (bitwise), and every phy., mac., net., election. and
/// arbiter. metric by name. Engine-internal families (des., pool., sim.,
/// shard., runtime.) depend on the engine and shard count and are left out,
/// so the hash is equal for serial and sharded runs of one scenario, and for
/// repeats.
[[nodiscard]] std::uint64_t fingerprint(const sim::ScenarioResult& result);

}  // namespace rrbench
