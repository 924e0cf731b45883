// Parallel-runtime profiler + run-health monitor (observability pillar 3).
//
// Two complementary instruments for the question the metric registry and
// event tracer cannot answer: where does *wall clock* go when a scenario
// runs, and is the run healthy while it is still running?
//
//  * RuntimeProfiler attributes wall time per shard worker across the three
//    phases of every window round — execute (run_until the window),
//    barrier-wait (spin at A/B), exchange (handoff injection + rebound)
//    — plus histograms of window width, lookahead-bound source,
//    handoff fan-out, and adaptive-batch width. The cardinal rule: stamps
//    are taken ONLY at round boundaries, never per event, so enabling the
//    profiler cannot perturb the serial==sharded bit-identity contract.
//    Laps are contiguous (each lap starts where the previous ended), so the
//    three phases account for the entire round loop by construction.
//    Flattened into shard.* / runtime.* registry entries — wall-clock
//    derived, hence engine-internal like sim.nodes_built and excluded from
//    the determinism sweeps.
//
//  * RunHealthMonitor samples wall-clock throughput (events/s) and process
//    RSS (getrusage) at window barriers (sharded; worker 0 publishes its
//    verdict before barrier B so every worker aborts at the same round) or
//    every ~262k events (serial), drives optional progress lines on
//    stderr, enforces per-run wall-clock and RSS budgets with a graceful
//    partial-result abort, and writes a structured report.json (phase
//    breakdown, peak RSS, throughput curve).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace rrnet::obs {

/// The three wall-clock phases of one sharded window round.
enum class ShardPhase : std::uint8_t {
  Execute = 0,  ///< run_until(window) + bound/emitted publication
  BarrierWait,  ///< spinning at barrier A / B
  Exchange,     ///< handoff injection, rebound
};

/// Which term of the conservative lookahead bound was the minimum.
enum class BoundSource : std::uint8_t {
  ArmedTx = 0,  ///< earliest armed-tx timer note
  PendingPhy,   ///< earliest in-flight PHY event + SIFS
  NextEvent,    ///< earliest scheduler event + DIFS
};

/// Per-worker accumulators, written by exactly one worker thread during the
/// round loop and read after join. Cache-line aligned: adjacent workers'
/// profiles must not false-share while both are stamping.
struct alignas(64) WorkerProfile {
  std::uint64_t phase_ns[3] = {0, 0, 0};  ///< indexed by ShardPhase
  std::uint64_t loop_ns = 0;              ///< begin()..end() wall time
  std::uint64_t rounds = 0;
  std::uint64_t exchange_rounds = 0;
  std::uint64_t forced_quiet_exchanges = 0;
  std::uint64_t handoffs_out = 0;  ///< handoffs this worker's shards emitted
  std::uint64_t bound_source[3] = {0, 0, 0};  ///< indexed by BoundSource
  Histogram window_width_ns;  ///< simulated window width (worker 0 only)
  Histogram handoff_fanout;   ///< outbound handoffs per shard-exchange
  Histogram batch_width;      ///< adaptive batch at exchange (worker 0 only)

  /// Start the lap clock (round-loop entry).
  void begin() noexcept {
    begin_ = mark_ = std::chrono::steady_clock::now();
  }
  /// Charge the time since the previous lap (or begin()) to `phase` and
  /// return it. Laps are contiguous: this lap's end is the next one's start.
  std::uint64_t lap(ShardPhase phase) noexcept {
    const auto now = std::chrono::steady_clock::now();
    const auto ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - mark_)
            .count());
    mark_ = now;
    phase_ns[static_cast<std::uint8_t>(phase)] += ns;
    return ns;
  }
  /// Close the round loop; loop_ns is the phase-coverage denominator.
  void end() noexcept {
    loop_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - begin_)
            .count());
  }
  [[nodiscard]] std::uint64_t accounted_ns() const noexcept {
    return phase_ns[0] + phase_ns[1] + phase_ns[2];
  }

 private:
  std::chrono::steady_clock::time_point begin_{};
  std::chrono::steady_clock::time_point mark_{};
};

/// One profile per worker thread of a sharded run. Constructed by the
/// coordinator, stamped by the workers, flattened into the metric registry
/// (and the run report) after join.
class RuntimeProfiler {
 public:
  explicit RuntimeProfiler(std::uint32_t workers) : workers_(workers) {}

  [[nodiscard]] WorkerProfile& worker(std::uint32_t t) { return workers_[t]; }
  [[nodiscard]] const WorkerProfile& worker(std::uint32_t t) const {
    return workers_[t];
  }
  [[nodiscard]] std::uint32_t workers() const noexcept {
    return static_cast<std::uint32_t>(workers_.size());
  }

  /// Flatten into shard.* / runtime.* registry entries: phase totals,
  /// barrier-wait percentage (overall and per worker), round counts,
  /// bound-source counters, and the merged histograms.
  void snapshot_into(MetricRegistry& registry) const;

 private:
  std::vector<WorkerProfile> workers_;
};

/// Samples run health (events/s, RSS) while a scenario executes, enforces
/// wall/RSS budgets, and writes the per-run report.json. Attach one to a
/// run via ScenarioConfig::health_monitor (non-owning); the engine calls
/// begin_run() before it builds the run's world(s), checkpoint() at window
/// barriers (sharded) or every event slice (serial) and finish_run() at the
/// end, so wall_s() covers world construction plus the run, for both
/// engines, and a monitor can be reused run after run. checkpoint() is
/// cheap — one steady-clock read unless the sample period elapsed.
class RunHealthMonitor {
 public:
  struct Config {
    double sample_period_s = 2.0;  ///< min wall clock between full samples
    double wall_budget_s = 0.0;    ///< abort when exceeded; 0 = unlimited
    double rss_budget_mib = 0.0;   ///< abort when exceeded; 0 = unlimited
    bool progress = false;         ///< print a progress line per sample
    std::string label;             ///< progress line prefix
  };
  /// One point of the throughput curve (events_per_s is the rate since the
  /// previous sample, i.e. the instantaneous slope, not the run average).
  struct Sample {
    double wall_s = 0.0;
    std::uint64_t events = 0;
    double events_per_s = 0.0;
    double rss_mib = 0.0;
  };
  /// Per-worker phase breakdown copied from the RuntimeProfiler for the
  /// report (coverage = accounted phases / measured round-loop wall).
  struct WorkerPhases {
    std::uint64_t execute_ns = 0;
    std::uint64_t barrier_wait_ns = 0;
    std::uint64_t exchange_ns = 0;
    std::uint64_t loop_ns = 0;
    [[nodiscard]] double coverage() const noexcept {
      const std::uint64_t accounted =
          execute_ns + barrier_wait_ns + exchange_ns;
      return loop_ns > 0 ? static_cast<double>(accounted) /
                               static_cast<double>(loop_ns)
                         : 1.0;
    }
  };

  RunHealthMonitor();  // default Config
  explicit RunHealthMonitor(Config config);

  /// Reset all state and start the run clock. checkpoint()/finish_run()
  /// self-start when this was not called explicitly.
  void begin_run();
  /// Report progress at a safe boundary. Returns true while the run is
  /// within budget; a false return asks the caller to stop gracefully and
  /// keep the partial result.
  bool checkpoint(std::uint64_t events_so_far);
  /// Record the final sample and close the run clock. Idempotent.
  void finish_run(std::uint64_t total_events);

  /// Copy the per-worker phase breakdown + aggregate round counters out of
  /// a finished run's profiler for the report.
  void note_profile(const RuntimeProfiler& profiler);
  /// Node stacks the run built (sim.nodes_built), for the report.
  void note_nodes_built(std::uint64_t nodes) noexcept { nodes_built_ = nodes; }
  [[nodiscard]] std::uint64_t nodes_built() const noexcept {
    return nodes_built_;
  }

  [[nodiscard]] bool budget_exceeded() const noexcept { return aborted_; }
  [[nodiscard]] const std::string& abort_reason() const noexcept {
    return abort_reason_;
  }
  [[nodiscard]] const std::vector<Sample>& samples() const noexcept {
    return samples_;
  }
  [[nodiscard]] const std::vector<WorkerPhases>& worker_phases()
      const noexcept {
    return worker_phases_;
  }
  [[nodiscard]] double peak_rss_mib() const noexcept { return peak_rss_mib_; }
  [[nodiscard]] double wall_s() const noexcept { return wall_s_; }
  [[nodiscard]] std::uint64_t events() const noexcept { return events_; }
  /// Smallest per-worker phase coverage, or 1.0 when no profile was noted.
  [[nodiscard]] double min_phase_coverage() const noexcept;

  /// Write the structured run report ("rrnet-run-report-v1"): wall/events/
  /// throughput, node stacks built, peak RSS, budgets + abort state, per-worker phase
  /// breakdown (when note_profile ran), and the throughput curve. Returns
  /// false when the file cannot be written.
  bool write_report_json(const std::string& path) const;

  /// Process peak RSS in MiB (getrusage; ru_maxrss is KiB on Linux).
  [[nodiscard]] static double process_rss_mib();

 private:
  void ensure_started();
  /// Full sample: RSS read, budget checks, optional progress line.
  bool sample_now(double wall, std::uint64_t events_so_far);

  Config config_;
  bool started_ = false;
  bool finished_ = false;
  bool aborted_ = false;
  std::string abort_reason_;
  std::chrono::steady_clock::time_point t0_{};
  double last_sample_wall_s_ = 0.0;
  std::uint64_t last_sample_events_ = 0;
  double peak_rss_mib_ = 0.0;
  double wall_s_ = 0.0;
  std::uint64_t events_ = 0;
  std::uint64_t nodes_built_ = 0;
  std::vector<Sample> samples_;
  std::vector<WorkerPhases> worker_phases_;
  // Aggregate round counters from note_profile (report only).
  std::uint64_t rounds_ = 0;
  std::uint64_t exchange_rounds_ = 0;
  std::uint64_t forced_quiet_exchanges_ = 0;
  std::uint64_t handoffs_ = 0;
  bool profile_noted_ = false;
};

}  // namespace rrnet::obs
