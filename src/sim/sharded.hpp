// Spatially sharded scenario execution: K terrain strips, each a complete
// shared-nothing simulation world (scheduler + channel slice + nodes),
// synchronized by conservative time windows.
//
// Determinism contract (gated by tests/sharded_test.cpp): for any shard
// count K, every semantic per-layer counter (phy.*, mac.*, net.*,
// election.*, arbiter.*) and every flow metric (sent/delivered/delay/hops)
// is bit-identical to the serial run. Engine-internal counters
// (des.events_executed, des.inline_advances, des.heap_high_water, pool.*)
// depend on K — a sharded run executes extra walker bookkeeping and splits
// pools across workers — and are excluded from the contract.
//
// How the windows work, in one paragraph: each shard i publishes a lower
// bound P_i on the earliest time it could put a frame on the air, derived
// from its MAC turnaround constants — P_i = min(earliest armed-tx timer,
// earliest in-flight PHY event + SIFS, earliest scheduler event + DIFS).
// All shards then run to W = min_i P_i. By construction no shard transmits
// before W, so no signal can arrive from another shard at or before W
// (cross-strip distance > 0 adds strictly positive propagation delay), and
// every shard's window is causally closed. Frames that do go on the air at
// W and reach another strip are exchanged at the barrier as ShardHandoff
// records and replayed by the destination shard over the full position
// grid, which reproduces the serial receiver interleaving exactly.
#pragma once

#include <vector>

#include "obs/trace.hpp"
#include "sim/scenario.hpp"

namespace rrnet::sim {

/// Run `config` across config.shards spatial shards on up to
/// config.shard_threads workers. Requires config.shards >= 2 (use
/// run_scenario / SimInstance for serial) and no path tracing (PathTrace
/// observes one world). Everything else — mobility, failures, stochastic
/// fading, energy tracking — runs sharded and stays bit-identical to
/// serial: mobility and failure schedules are replicated on every shard
/// from the same rng forks, a node stays with the shard of its initial
/// strip wherever it moves (every shard replays every walk over the full
/// position grid, so any owner map is correct), fading draws come from
/// counter-based per-link streams (des::LinkRng) that any shard can
/// replay, and each energy meter lives on its node's owner (final sum in
/// node-id order).
///
/// When `trace_out` is non-null and config.trace_events is set, the
/// per-worker tracer rings are merged by timestamp into it (stable across
/// worker counts for distinct timestamps).
[[nodiscard]] ScenarioResult run_scenario_sharded(
    const ScenarioConfig& config,
    std::vector<obs::TraceRecord>* trace_out = nullptr);

}  // namespace rrnet::sim
