#include "sim/sharded.hpp"

#include <algorithm>
#include <array>
#include <memory>
#include <thread>

#include "obs/profiler.hpp"
#include "sim/builder.hpp"
#include "sim/spin_barrier.hpp"
#include "util/contracts.hpp"

namespace rrnet::sim {

namespace {

/// Conservative lower bound on this shard's next possible transmit time,
/// evaluated with the shard quiesced at `now` (and any remote handoffs
/// already injected). See sharded.hpp for the derivation; soundness rests
/// on the CsmaMac note_armed_tx() hooks covering every timer whose expiry
/// can transmit with less than a DIFS of warning.
des::Time shard_bound(World& world, des::Time now,
                      const mac::MacParams& mac,
                      obs::BoundSource* source = nullptr) {
  phy::Channel& channel = world.network->channel();
  des::Time bound = channel.earliest_armed_tx(now);
  obs::BoundSource which = obs::BoundSource::ArmedTx;
  const des::Time phy = channel.earliest_phy_event(now) + mac.sifs;
  if (phy < bound) {
    bound = phy;
    which = obs::BoundSource::PendingPhy;
  }
  const des::Time next = world.scheduler.next_event_time() + mac.difs;
  if (next < bound) {
    bound = next;
    which = obs::BoundSource::NextEvent;
  }
  if (source != nullptr) *source = which;
  return bound;
}

}  // namespace

ScenarioResult run_scenario_sharded(const ScenarioConfig& config,
                                    std::vector<obs::TraceRecord>* trace_out) {
  const std::uint32_t shards = config.shards;
  RRNET_EXPECTS(shards >= 2);
  // The only remaining serial-only feature: PathTrace observes every
  // network-layer tx in one world, and relay paths cross strips. Mobility
  // is handled by replicated position updates with static ownership,
  // failures by replicated draw streams with ownership-gated toggles, fading
  // by the counter-based per-link rng, and energy by per-owner meters and a
  // node-id-order final sum.
  RRNET_EXPECTS(!config.trace_paths);

  std::uint32_t threads = config.shard_threads;
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  threads = std::min(threads, shards);

  const WorldPlan plan = plan_world(config);
  obs::RunHealthMonitor* monitor = config.health_monitor;
  if (monitor != nullptr) monitor->begin_run();

  // ---- Shared window-protocol state. worlds/bounds/emitted slots are
  // written by the owning worker and read by all; every
  // cross-thread handoff of these is ordered by a barrier crossing (or
  // thread join for the outcomes). ----
  SpinBarrier barrier(threads);
  std::vector<World*> worlds(shards, nullptr);
  // bounds / emitted are double-buffered by round parity: a quiet round has
  // a single barrier (A), so round r's readers and round r+1's writers share
  // the span between two A crossings — parity gives them disjoint slots, and
  // the next same-parity write (round r+2) is separated from round r's reads
  // by barrier A(r+1). bounds[p][s] is the conservative transmit bound of
  // shard s; emitted[p][s] flags outbound handoffs.
  std::array<std::vector<des::Time>, 2> bounds{
      std::vector<des::Time>(shards, 0.0),
      std::vector<des::Time>(shards, 0.0)};
  std::array<std::vector<std::uint8_t>, 2> emitted{
      std::vector<std::uint8_t>(shards, 0),
      std::vector<std::uint8_t>(shards, 0)};
  std::vector<WorldOutcome> outcomes(shards);
  std::vector<std::vector<obs::TraceRecord>> trace_rings(threads);
  const bool want_trace = config.trace_events;
  const des::Time sim_end = config.sim_end;
  const mac::MacParams mac = config.mac;
  // Window batching: up to window_batch consecutive quiet windows (no shard
  // has outbound handoffs) skip the exchange half of the round before one
  // is forced. The batch doubles (capped) after each forced exchange that
  // found every shard quiet, and snaps back to 1 the moment any shard
  // emits. Every worker replicates the controller off shared emitted[]
  // state, so all take the same barrier path; a skipped exchange is a
  // no-op, so the batch never changes a result.
  constexpr std::uint32_t kMaxWindowBatch = 64;
  // Runtime profiler: per-worker phase/round accumulators, stamped only at
  // round boundaries (never per event — bit-identity untouched).
  std::unique_ptr<obs::RuntimeProfiler> profiler;
  if (config.profile_runtime) {
    profiler = std::make_unique<obs::RuntimeProfiler>(threads);
  }
  // Budget abort flag: worker 0 decides between barriers A and B of an
  // exchange round, every worker reads it after B — a plain byte is enough,
  // the barrier crossings order the accesses. All workers then break at the
  // same round with every shard quiesced at the same window, so the partial
  // result flows through the normal harvest/merge.
  std::uint8_t stop_requested = 0;

  auto worker = [&](std::uint32_t t) {
    const std::uint32_t lo = t * shards / threads;
    const std::uint32_t hi = (t + 1) * shards / threads;
    obs::WorkerProfile* const prof =
        profiler != nullptr ? &profiler->worker(t) : nullptr;

    std::unique_ptr<obs::EventTracer> tracer;
    obs::EventTracer* prev_tracer = nullptr;
    if (want_trace) {
      tracer = std::make_unique<obs::EventTracer>(config.trace_capacity);
      tracer->set_enabled(true);
      prev_tracer = obs::set_thread_tracer(tracer.get());
    }

    const PoolBaseline pools;  // before this worker builds anything
    std::vector<std::unique_ptr<World>> mine;
    mine.reserve(hi - lo);
    for (std::uint32_t s = lo; s < hi; ++s) {
      mine.push_back(build_world(
          plan, {s, shards, plan.owner},
          plan.shared_index ? std::vector<geom::Vec2>{} : plan.positions));
      // Each shard logs its flow events for the time-ordered merge.
      mine.back()->flows.enable_event_log();
      worlds[s] = mine.back().get();
    }
    // Publish worlds[] (and consume everyone else's) before any cross-shard
    // outbox access.
    barrier.arrive_and_wait();

    // t = 0: start every world, then publish the initial bounds (parity
    // buffer 0 — the startup acts as round 0).
    for (std::uint32_t s = lo; s < hi; ++s) {
      worlds[s]->start();
      bounds[0][s] = shard_bound(*worlds[s], 0.0, mac);
    }
    barrier.arrive_and_wait();

    des::Time window = sim_end;
    for (std::uint32_t s = 0; s < shards; ++s) {
      window = std::min(window, bounds[0][s]);
    }
    // Consecutive windows that skipped the exchange; replicated identically
    // on every worker (it advances off shared emitted[] state only), so all
    // workers take the same barrier path every round.
    std::uint32_t quiet_streak = 0;
    std::uint32_t window_batch = 1;
    std::uint32_t parity = 0;
    // Profiler round state: the previous round's window (for width), and
    // this round's barrier spin total (A + B) for the trace lane.
    des::Time window_start = 0.0;
    [[maybe_unused]] std::uint64_t round_barrier_ns = 0;
    if (prof != nullptr) prof->begin();
    for (;;) {
      parity ^= 1;
      for (std::uint32_t s = lo; s < hi; ++s) {
        // Safe to drop last window's handoffs now: every destination
        // deep-cloned what it needed before the previous barrier.
        worlds[s]->network->channel().clear_outboxes();
        worlds[s]->scheduler.run_until(window);
      }
      for (std::uint32_t s = lo; s < hi; ++s) {
        phy::Channel& channel = worlds[s]->network->channel();
        emitted[parity][s] = channel.has_outbound() ? 1 : 0;
        // Provisional bound; exact when the exchange below is skipped
        // (injection would be a no-op then).
        obs::BoundSource bound_src = obs::BoundSource::ArmedTx;
        bounds[parity][s] = shard_bound(*worlds[s], window, mac,
                                        prof != nullptr ? &bound_src : nullptr);
        if (prof != nullptr) {
          ++prof->bound_source[static_cast<std::uint8_t>(bound_src)];
        }
      }
      if (prof != nullptr) {
        ++prof->rounds;
        const std::uint64_t exec_ns = prof->lap(obs::ShardPhase::Execute);
        RRNET_TRACE_EVENT(obs::EventKind::WindowSpan, window_start, t, exec_ns,
                          0);
        (void)exec_ns;
        if (t == 0) {
          // Window width / batch are global round properties: one observer,
          // or K workers would inflate the histogram counts K-fold.
          const double width_s = window - window_start;
          prof->window_width_ns.observe(
              width_s > 0.0 ? static_cast<std::uint64_t>(width_s * 1e9) : 0);
        }
        window_start = window;
        round_barrier_ns = 0;
      }
      barrier.arrive_and_wait();  // A: outboxes sealed, emitted[] published
      if (prof != nullptr) {
        round_barrier_ns = prof->lap(obs::ShardPhase::BarrierWait);
      }

      bool any_emitted = false;
      for (std::uint32_t s = 0; s < shards && !any_emitted; ++s) {
        any_emitted = emitted[parity][s] != 0;
      }
      const bool exchange =
          window >= sim_end || quiet_streak + 1 >= window_batch || any_emitted;
      if (!exchange) {
        // Quiet window: nothing outbound anywhere, so the injection +
        // rebound + barrier B round-trip is skipped entirely.
        ++quiet_streak;
        if (prof != nullptr) {
          RRNET_TRACE_EVENT(obs::EventKind::BarrierWait, window, t,
                            round_barrier_ns, 0);
        }
        des::Time next = sim_end;
        for (std::uint32_t s = 0; s < shards; ++s) {
          next = std::min(next, bounds[parity][s]);
        }
        window = next;
        continue;
      }
      // Busy window: exchanges are earning their keep, go tight. A forced
      // exchange that found nothing anywhere: widen the quiet allowance.
      window_batch =
          any_emitted ? 1 : std::min(window_batch * 2, kMaxWindowBatch);
      quiet_streak = 0;
      if (prof != nullptr) {
        ++prof->exchange_rounds;
        if (!any_emitted && window < sim_end) ++prof->forced_quiet_exchanges;
        if (t == 0) prof->batch_width.observe(window_batch);
      }

      for (std::uint32_t s = lo; s < hi; ++s) {
        phy::Channel& channel = worlds[s]->network->channel();
        if (prof != nullptr) {
          // This shard's sealed outboxes: its exchange fan-out this round.
          const std::uint64_t fanout = channel.outbound_handoffs();
          prof->handoffs_out += fanout;
          prof->handoff_fanout.observe(fanout);
        }
        // Source-shard-index order, push order within: the deterministic
        // merge that keeps the replayed receiver walks in serial order.
        for (std::uint32_t src = 0; src < shards; ++src) {
          if (src == s) continue;
          for (const phy::ShardHandoff& handoff :
               worlds[src]->network->channel().outbox(s)) {
            channel.inject_remote(handoff);
          }
        }
        // Bound AFTER injection: replayed signals feed the PHY-event term.
        bounds[parity][s] = shard_bound(*worlds[s], window, mac);
      }
      if (t == 0 && monitor != nullptr) {
        // Health sample on exchange rounds only: foreign executed_ counters
        // were last written before barrier A (happens-before via the spin
        // barrier) and their owners are parked until B, so summing them
        // here is race-free. Quiet rounds cross only barrier A and give no
        // such window.
        std::uint64_t events = 0;
        for (std::uint32_t s = 0; s < shards; ++s) {
          events += worlds[s]->scheduler.executed_count();
        }
        stop_requested = monitor->checkpoint(events) ? 0 : 1;
      }
      if (prof != nullptr) (void)prof->lap(obs::ShardPhase::Exchange);
      barrier.arrive_and_wait();  // B: bounds published
      if (prof != nullptr) {
        round_barrier_ns += prof->lap(obs::ShardPhase::BarrierWait);
        RRNET_TRACE_EVENT(obs::EventKind::BarrierWait, window, t,
                          round_barrier_ns, 0);
      }

      // Budget abort (worker 0's verdict, published before barrier B): all
      // workers break at the same round, every shard quiesced at `window` —
      // a consistent partial result.
      if (stop_requested != 0) break;
      if (window >= sim_end) break;
      des::Time next = sim_end;
      for (std::uint32_t s = 0; s < shards; ++s) {
        next = std::min(next, bounds[parity][s]);
      }
      window = next;
    }
    if (prof != nullptr) prof->end();

    // Harvest on the owning thread (snapshot_metrics walks thread-local
    // pool-backed structures), then destroy the worlds here too.
    for (std::uint32_t s = lo; s < hi; ++s) {
      outcomes[s] = harvest_world(*worlds[s]);
    }
    mine.clear();
    // Registry merges commute, so this worker's pool deltas ride along
    // with its first shard's outcome.
    pools.add_deltas(outcomes[lo].metrics);

    if (want_trace) {
      trace_rings[t] = tracer->snapshot();
      obs::set_thread_tracer(prev_tracer);
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(threads - 1);
  for (std::uint32_t t = 1; t < threads; ++t) {
    pool.emplace_back(worker, t);
  }
  worker(0);
  for (std::thread& th : pool) th.join();

  // ---- Deterministic merge (coordinator, after join). ----
  app::FlowStats flows;
  {
    std::vector<app::FlowStats::FlowEvent> merged;
    std::size_t total = 0;
    for (const WorldOutcome& out : outcomes) total += out.flow_log.size();
    merged.reserve(total);
    for (const WorldOutcome& out : outcomes) {
      merged.insert(merged.end(), out.flow_log.begin(), out.flow_log.end());
    }
    // Each shard's log is already time-sorted (execution order); a stable
    // sort of the shard-order concatenation is the (time, shard, seq)
    // merge. Absent cross-shard bitwise-equal timestamps — which the
    // determinism test would catch — this is the serial event order, so the
    // replayed dedup windows and FP accumulations match bit-for-bit.
    std::stable_sort(merged.begin(), merged.end(),
                     [](const app::FlowStats::FlowEvent& a,
                        const app::FlowStats::FlowEvent& b) {
                       return a.time < b.time;
                     });
    for (const app::FlowStats::FlowEvent& event : merged) {
      flows.replay(event);
    }
  }
  ScenarioResult r = assemble_result(flows, outcomes);
  if (profiler != nullptr) profiler->snapshot_into(r.metrics);
  if (monitor != nullptr) {
    if (profiler != nullptr) monitor->note_profile(*profiler);
    monitor->note_nodes_built(r.metrics.value(obs::metric::kSimNodesBuilt));
    monitor->finish_run(r.events_executed);
  }

  if (trace_out != nullptr && want_trace) {
    const std::vector<obs::TraceRecord> merged =
        obs::merge_records_by_time(trace_rings);
    trace_out->insert(trace_out->end(), merged.begin(), merged.end());
  }
  return r;
}

}  // namespace rrnet::sim
