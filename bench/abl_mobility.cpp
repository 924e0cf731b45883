// Extension experiment (§5): "the benefit ... is that it makes networks
// more adaptive to dynamic changes".
//
// Random-waypoint mobility at increasing speeds; Routeless Routing's
// per-packet elections track the moving topology for free, while AODV's
// cached next hops break and must be re-discovered.
//
// Each (speed, protocol) cell runs serial (shards = 1) and sharded
// (shards = 4): mobility runs on the parallel engine (waypoint schedules
// replicated on every shard; each node keeps the owner of its initial
// strip, since every shard replays every receiver walk over the full
// position grid), and the shards/threads columns track its speedup at
// fixed semantics.
// Results are bit-identical across shard counts (gated by
// tests/sharded_test.cpp), so any drift between a K = 1 row and its K = 4
// twin is a bug, and the shape check below enforces that on the delivery
// column. Flags: --quick, --nodes, --seed, --reps, --shards K (single
// custom shard count).
#include <algorithm>
#include <thread>

#include "bench_common.hpp"
#include "sim/runner.hpp"

int main(int argc, char** argv) {
  using namespace rrnet;
  const util::Flags flags(argc, argv);
  sim::ScenarioConfig base = bench::figure3_setup();
  std::size_t replications = 2;
  bench::apply_flags(flags, base, replications);
  base.nodes = flags.has("nodes") ? base.nodes : 300;
  base.width_m = base.height_m = 1600.0;
  base.pairs = 4;
  base.mobility = true;
  base.cbr_interval = 2.0;

  bench::print_header("Extension — mobility sweep (random waypoint)",
                      "WMAN'05 §5: routeless forwarding adapts to dynamic "
                      "topologies; route caches go stale");

  std::vector<double> speeds = {0.5, 2, 5, 10, 20};
  if (flags.get_bool("quick", false)) speeds = {0.5, 10};
  std::vector<std::uint32_t> shard_counts = {1, 4};
  if (flags.has("shards")) {
    shard_counts = {static_cast<std::uint32_t>(flags.get_int("shards", 1))};
  }
  const std::uint32_t hw = std::max(1u, std::thread::hardware_concurrency());

  util::Table table({"speed_mps", "protocol", "shards", "threads", "delivery",
                     "delay_s", "avg_hops", "mac_per_delivered"});
  for (const double speed : speeds) {
    for (const auto kind :
         {sim::ProtocolKind::Routeless, sim::ProtocolKind::Aodv}) {
      for (const std::uint32_t shards : shard_counts) {
        sim::ScenarioConfig config = base;
        config.protocol = kind;
        config.mobility_min_speed_mps = std::max(0.1, speed / 2.0);
        config.mobility_max_speed_mps = speed;
        config.shards = shards;
        config.shard_threads = 0;  // auto: min(hw, shards) per replication
        const std::uint32_t threads = shards == 1 ? 1 : std::min(hw, shards);
        const sim::Aggregated agg =
            sim::run_replications(config, replications);
        table.add_row({speed, std::string(sim::to_string(kind)),
                       static_cast<double>(shards),
                       static_cast<double>(threads), agg.delivery_ratio.mean,
                       agg.delay_s.mean, agg.hops.mean,
                       agg.mac_per_delivered.mean});
      }
    }
    std::fprintf(stderr, "  [speed=%g m/s] done\n", speed);
  }
  bench::emit(table, "abl_mobility.csv");

  // Rows per speed block: |protocols| x |shard_counts|.
  const std::size_t per_kind = shard_counts.size();
  const std::size_t last_rr = table.rows() - 2 * per_kind;
  const std::size_t last_aodv = table.rows() - per_kind;
  const double rr_fast = std::get<double>(table.at(last_rr, 4));
  const double aodv_fast = std::get<double>(table.at(last_aodv, 4));
  std::printf("\nshape check: at the highest speed RR delivers %.3f vs AODV "
              "%.3f\n",
              rr_fast, aodv_fast);
  if (per_kind > 1) {
    const double rr_sharded = std::get<double>(table.at(last_rr + 1, 4));
    if (rr_fast != rr_sharded) {
      std::printf("DRIFT: serial delivery %.6f != sharded %.6f\n", rr_fast,
                  rr_sharded);
      return 1;
    }
    std::printf("determinism check: serial == sharded delivery at every "
                "speed row sampled\n");
  }
  return 0;
}
