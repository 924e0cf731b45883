// Profiled single-run driver: one sharded scenario with the runtime
// profiler + run-health monitor attached, emitting the structured run
// report (report.json, schema rrnet-run-report-v1) and optionally a Chrome
// trace whose pid-2 lanes show each worker's window rounds (WindowSpan /
// BarrierWait spans; a build with -DRRNET_TRACE=ON is needed to capture
// them — a compiled-out build still writes a valid, lane-less trace).
//
// scripts/verify.sh drives this as its exporter smoke: both output files
// must parse with `python3 -m json.tool`, and the exit status is non-zero
// when any worker's execute+barrier+exchange phase breakdown covers less
// than --min-coverage (default 0.95) of its measured round-loop wall time
// — the profiler's accounting contract.
//
// Flags: --scenario fig1|fig3 (default fig1; fig3 runs Routeless Routing
// with 10 pairs), --shards K (default 4), --threads T (default 0 = auto),
// --nodes N, --seed S, --sim-end T,
// --report PATH (default report.json), --trace PATH (no trace when empty),
// --progress BOOL, --wall-budget-s S, --rss-budget-mib M,
// --min-coverage F.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "sim/runner.hpp"
#include "sim/sharded.hpp"

int main(int argc, char** argv) {
  using namespace rrnet;
  const util::Flags flags(argc, argv);

  const std::string scenario = flags.get_string("scenario", "fig1");
  sim::ScenarioConfig config = scenario == "fig3" ? bench::figure3_setup()
                                                  : bench::figure1_setup();
  if (scenario == "fig3") {
    // figure3_setup() is the sweep's base; Figure 3's headline point is
    // Routeless Routing at the sweep's largest pair count.
    config.protocol = sim::ProtocolKind::Routeless;
    config.pairs = 10;
  }
  std::size_t replications = 1;
  bench::apply_flags(flags, config, replications);
  config.shards = static_cast<std::uint32_t>(flags.get_int("shards", 4));
  config.shard_threads =
      static_cast<std::uint32_t>(flags.get_int("threads", 0));
  config.sim_end = flags.get_double("sim-end", config.sim_end);
  config.traffic_stop = std::min(config.traffic_stop, config.sim_end);
  config.profile_runtime = true;

  const std::string report_path = flags.get_string("report", "report.json");
  const std::string trace_path = flags.get_string("trace", "");
  config.trace_events = !trace_path.empty();

  obs::RunHealthMonitor::Config monitor_config;
  monitor_config.progress = flags.get_bool("progress", false);
  monitor_config.wall_budget_s = flags.get_double("wall-budget-s", 0.0);
  monitor_config.rss_budget_mib = flags.get_double("rss-budget-mib", 0.0);
  monitor_config.label = scenario + " " + sim::to_string(config.protocol) +
                         " pairs=" + std::to_string(config.pairs);
  obs::RunHealthMonitor monitor(monitor_config);
  config.health_monitor = &monitor;

  sim::ScenarioResult result;
  std::vector<obs::TraceRecord> records;
  if (config.shards > 1) {
    result = sim::run_scenario_sharded(config, &records);
  } else {
    result = sim::run_scenario(config);
  }

  // Executed events plus walker steps taken in place: the work unit of
  // run_bench_suite, comparable across the in-place advance.
  const std::uint64_t events =
      result.events_executed +
      result.metrics.value(obs::metric::kDesInlineAdvances);
  std::printf("%s: %llu events in %.2fs (%.2fM ev/s), peak RSS %.0f MiB%s\n",
              monitor_config.label.c_str(),
              static_cast<unsigned long long>(events), monitor.wall_s(),
              monitor.wall_s() > 0.0
                  ? static_cast<double>(events) / monitor.wall_s() * 1e-6
                  : 0.0,
              monitor.peak_rss_mib(),
              monitor.budget_exceeded() ? "  [ABORTED: partial result]" : "");
  if (monitor.budget_exceeded()) {
    std::printf("  abort reason: %s\n", monitor.abort_reason().c_str());
  }
  const std::vector<obs::RunHealthMonitor::WorkerPhases>& phases =
      monitor.worker_phases();
  for (std::size_t t = 0; t < phases.size(); ++t) {
    const obs::RunHealthMonitor::WorkerPhases& w = phases[t];
    std::printf("  worker %zu: execute %.3fs, barrier %.3fs, exchange "
                "%.3fs (coverage %.1f%% of %.3fs loop)\n",
                t, static_cast<double>(w.execute_ns) * 1e-9,
                static_cast<double>(w.barrier_wait_ns) * 1e-9,
                static_cast<double>(w.exchange_ns) * 1e-9,
                w.coverage() * 100.0,
                static_cast<double>(w.loop_ns) * 1e-9);
  }
  if (config.shards > 1) {
    namespace m = obs::metric;
    std::printf("  rounds %llu (%llu exchange, %llu forced-quiet), "
                "handoffs %llu, barrier wait %llu%%\n",
                static_cast<unsigned long long>(
                    result.metrics.value(m::kShardRounds)),
                static_cast<unsigned long long>(
                    result.metrics.value(m::kShardExchangeRounds)),
                static_cast<unsigned long long>(
                    result.metrics.value(m::kShardForcedQuietExchanges)),
                static_cast<unsigned long long>(
                    result.metrics.value(m::kShardHandoffs)),
                static_cast<unsigned long long>(
                    result.metrics.value(m::kRuntimeBarrierWaitPct)));
  }

  if (!monitor.write_report_json(report_path)) {
    std::fprintf(stderr, "cannot write %s\n", report_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", report_path.c_str());
  if (!trace_path.empty()) {
    if (!obs::export_records_chrome_trace_file(records, trace_path)) {
      std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
      return 1;
    }
    std::printf("wrote %s (%zu records%s)\n", trace_path.c_str(),
                records.size(),
                obs::trace_compiled_in() ? "" : "; tracing compiled out");
  }

  const double min_coverage = flags.get_double("min-coverage", 0.95);
  if (monitor.min_phase_coverage() < min_coverage) {
    std::fprintf(stderr,
                 "phase coverage %.3f below required %.2f — the profiler's "
                 "laps are leaking wall time\n",
                 monitor.min_phase_coverage(), min_coverage);
    return 1;
  }
  return monitor.budget_exceeded() ? 2 : 0;
}
