#include "obs/profiler.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <utility>

namespace rrnet::obs {
namespace {

/// Percentage helper that never divides by zero.
std::uint64_t pct_of(std::uint64_t part, std::uint64_t whole) noexcept {
  return whole > 0 ? (100 * part) / whole : 0;
}

/// JSON-safe double: report files must survive `python3 -m json.tool`, so
/// NaN/inf (not valid JSON) collapse to 0.
double json_num(double v) noexcept { return std::isfinite(v) ? v : 0.0; }

void append_json_string(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_double(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", json_num(v));
  out += buf;
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu",
                static_cast<unsigned long long>(v));
  out += buf;
}

}  // namespace

void RuntimeProfiler::snapshot_into(MetricRegistry& registry) const {
  std::uint64_t phase_total[3] = {0, 0, 0};
  std::uint64_t handoffs = 0;
  std::uint64_t bound[3] = {0, 0, 0};
  Histogram window_width;
  Histogram fanout;
  Histogram batch;
  char name[MetricRegistry::kMaxNameLen + 1];
  for (std::uint32_t t = 0; t < workers(); ++t) {
    const WorkerProfile& w = workers_[t];
    for (int p = 0; p < 3; ++p) phase_total[p] += w.phase_ns[p];
    handoffs += w.handoffs_out;
    for (int b = 0; b < 3; ++b) bound[b] += w.bound_source[b];
    // Round counters are replicated (every worker walks the same rounds):
    // gauges, so K workers do not inflate them K-fold.
    registry.set_max(metric::kShardRounds, w.rounds);
    registry.set_max(metric::kShardExchangeRounds, w.exchange_rounds);
    registry.set_max(metric::kShardForcedQuietExchanges,
                     w.forced_quiet_exchanges);
    window_width.merge(w.window_width_ns);
    fanout.merge(w.handoff_fanout);
    batch.merge(w.batch_width);
    std::snprintf(name, sizeof(name), "runtime.w%u.barrier_wait_pct", t);
    registry.set_max(name, pct_of(w.phase_ns[1], w.accounted_ns()));
  }
  registry.add(metric::kRuntimeExecuteNs, phase_total[0]);
  registry.add(metric::kRuntimeBarrierWaitNs, phase_total[1]);
  registry.add(metric::kRuntimeExchangeNs, phase_total[2]);
  registry.set_max(metric::kRuntimeBarrierWaitPct,
                   pct_of(phase_total[1],
                          phase_total[0] + phase_total[1] + phase_total[2]));
  registry.add(metric::kShardHandoffs, handoffs);
  registry.add(metric::kShardBoundArmedTx, bound[0]);
  registry.add(metric::kShardBoundPendingPhy, bound[1]);
  registry.add(metric::kShardBoundNextEvent, bound[2]);
  if (!window_width.empty()) {
    window_width.snapshot_into(registry, metric::kShardWindowWidthNs);
  }
  if (!fanout.empty()) fanout.snapshot_into(registry, metric::kShardHandoffFanout);
  if (!batch.empty()) batch.snapshot_into(registry, metric::kShardBatchWidth);
}

RunHealthMonitor::RunHealthMonitor() : RunHealthMonitor(Config()) {}

RunHealthMonitor::RunHealthMonitor(Config config)
    : config_(std::move(config)) {}

double RunHealthMonitor::process_rss_mib() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void RunHealthMonitor::begin_run() {
  started_ = true;
  finished_ = false;
  aborted_ = false;
  abort_reason_.clear();
  t0_ = std::chrono::steady_clock::now();
  last_sample_wall_s_ = 0.0;
  last_sample_events_ = 0;
  peak_rss_mib_ = 0.0;
  wall_s_ = 0.0;
  events_ = 0;
  nodes_built_ = 0;
  samples_.clear();
  worker_phases_.clear();
  rounds_ = exchange_rounds_ = forced_quiet_exchanges_ = 0;
  handoffs_ = 0;
  profile_noted_ = false;
}

void RunHealthMonitor::ensure_started() {
  if (!started_) begin_run();
}

bool RunHealthMonitor::sample_now(double wall, std::uint64_t events_so_far) {
  const double dt = wall - last_sample_wall_s_;
  const double rate =
      dt > 0.0
          ? static_cast<double>(events_so_far - last_sample_events_) / dt
          : 0.0;
  const double rss = process_rss_mib();
  peak_rss_mib_ = std::max(peak_rss_mib_, rss);
  samples_.push_back(Sample{wall, events_so_far, rate, rss});
  last_sample_wall_s_ = wall;
  last_sample_events_ = events_so_far;
  if (config_.progress) {
    std::fprintf(stderr, "  [%s] %.1fs  %.2fM events  %.2fM ev/s  %.0f MiB\n",
                 config_.label.c_str(), wall,
                 static_cast<double>(events_so_far) * 1e-6, rate * 1e-6, rss);
  }
  if (!aborted_ && config_.rss_budget_mib > 0.0 &&
      rss > config_.rss_budget_mib) {
    aborted_ = true;
    char buf[96];
    std::snprintf(buf, sizeof(buf), "rss %.0f MiB exceeded budget %.0f MiB",
                  rss, config_.rss_budget_mib);
    abort_reason_ = buf;
  }
  if (!aborted_ && config_.wall_budget_s > 0.0 &&
      wall > config_.wall_budget_s) {
    aborted_ = true;
    char buf[96];
    std::snprintf(buf, sizeof(buf), "wall %.1fs exceeded budget %.1fs", wall,
                  config_.wall_budget_s);
    abort_reason_ = buf;
  }
  return !aborted_;
}

bool RunHealthMonitor::checkpoint(std::uint64_t events_so_far) {
  ensure_started();
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0_)
                          .count();
  events_ = events_so_far;
  wall_s_ = wall;
  // Wall budget is checked every checkpoint (the clock was already read);
  // RSS + progress only once per sample period.
  if (!aborted_ && config_.wall_budget_s > 0.0 &&
      wall > config_.wall_budget_s) {
    aborted_ = true;
    char buf[96];
    std::snprintf(buf, sizeof(buf), "wall %.1fs exceeded budget %.1fs", wall,
                  config_.wall_budget_s);
    abort_reason_ = buf;
  }
  if (samples_.empty() ||
      wall - last_sample_wall_s_ >= config_.sample_period_s) {
    return sample_now(wall, events_so_far);
  }
  return !aborted_;
}

void RunHealthMonitor::finish_run(std::uint64_t total_events) {
  ensure_started();
  if (finished_) return;
  finished_ = true;
  wall_s_ = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0_)
                .count();
  events_ = total_events;
  sample_now(wall_s_, total_events);
}

void RunHealthMonitor::note_profile(const RuntimeProfiler& profiler) {
  worker_phases_.clear();
  worker_phases_.reserve(profiler.workers());
  handoffs_ = 0;
  for (std::uint32_t t = 0; t < profiler.workers(); ++t) {
    const WorkerProfile& w = profiler.worker(t);
    worker_phases_.push_back(WorkerPhases{
        w.phase_ns[0], w.phase_ns[1], w.phase_ns[2], w.loop_ns});
    handoffs_ += w.handoffs_out;
    rounds_ = std::max(rounds_, w.rounds);
    exchange_rounds_ = std::max(exchange_rounds_, w.exchange_rounds);
    forced_quiet_exchanges_ =
        std::max(forced_quiet_exchanges_, w.forced_quiet_exchanges);
  }
  profile_noted_ = true;
}

double RunHealthMonitor::min_phase_coverage() const noexcept {
  double min_cov = 1.0;
  for (const WorkerPhases& w : worker_phases_) {
    min_cov = std::min(min_cov, w.coverage());
  }
  return min_cov;
}

bool RunHealthMonitor::write_report_json(const std::string& path) const {
  std::string out;
  out.reserve(4096);
  out += "{\n  \"schema\": \"rrnet-run-report-v1\",\n  \"label\": ";
  append_json_string(out, config_.label);
  out += ",\n  \"wall_s\": ";
  append_double(out, wall_s_);
  out += ",\n  \"events\": ";
  append_u64(out, events_);
  out += ",\n  \"events_per_s\": ";
  append_double(out, wall_s_ > 0.0
                         ? static_cast<double>(events_) / wall_s_
                         : 0.0);
  out += ",\n  \"nodes_built\": ";
  append_u64(out, nodes_built_);
  out += ",\n  \"peak_rss_mib\": ";
  append_double(out, peak_rss_mib_);
  out += ",\n  \"aborted\": ";
  out += aborted_ ? "true" : "false";
  out += ",\n  \"abort_reason\": ";
  append_json_string(out, abort_reason_);
  out += ",\n  \"budgets\": {\"wall_s\": ";
  append_double(out, config_.wall_budget_s);
  out += ", \"rss_mib\": ";
  append_double(out, config_.rss_budget_mib);
  out += "}";
  if (profile_noted_) {
    std::uint64_t exec = 0;
    std::uint64_t barrier = 0;
    std::uint64_t exch = 0;
    for (const WorkerPhases& w : worker_phases_) {
      exec += w.execute_ns;
      barrier += w.barrier_wait_ns;
      exch += w.exchange_ns;
    }
    const std::uint64_t total = exec + barrier + exch;
    out += ",\n  \"phases\": {\n    \"totals\": {\"execute_ns\": ";
    append_u64(out, exec);
    out += ", \"barrier_wait_ns\": ";
    append_u64(out, barrier);
    out += ", \"exchange_ns\": ";
    append_u64(out, exch);
    out += ", \"barrier_wait_frac\": ";
    append_double(out, total > 0 ? static_cast<double>(barrier) /
                                       static_cast<double>(total)
                                 : 0.0);
    out += "},\n    \"rounds\": ";
    append_u64(out, rounds_);
    out += ",\n    \"exchange_rounds\": ";
    append_u64(out, exchange_rounds_);
    out += ",\n    \"forced_quiet_exchanges\": ";
    append_u64(out, forced_quiet_exchanges_);
    out += ",\n    \"handoffs\": ";
    append_u64(out, handoffs_);
    out += ",\n    \"workers\": [";
    for (std::size_t t = 0; t < worker_phases_.size(); ++t) {
      const WorkerPhases& w = worker_phases_[t];
      out += t == 0 ? "\n" : ",\n";
      out += "      {\"worker\": ";
      append_u64(out, t);
      out += ", \"execute_ns\": ";
      append_u64(out, w.execute_ns);
      out += ", \"barrier_wait_ns\": ";
      append_u64(out, w.barrier_wait_ns);
      out += ", \"exchange_ns\": ";
      append_u64(out, w.exchange_ns);
      out += ", \"loop_ns\": ";
      append_u64(out, w.loop_ns);
      out += ", \"coverage\": ";
      append_double(out, w.coverage());
      out += "}";
    }
    out += "\n    ]\n  }";
  }
  out += ",\n  \"throughput\": [";
  for (std::size_t i = 0; i < samples_.size(); ++i) {
    const Sample& s = samples_[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"wall_s\": ";
    append_double(out, s.wall_s);
    out += ", \"events\": ";
    append_u64(out, s.events);
    out += ", \"events_per_s\": ";
    append_double(out, s.events_per_s);
    out += ", \"rss_mib\": ";
    append_double(out, s.rss_mib);
    out += "}";
  }
  out += samples_.empty() ? "]\n}\n" : "\n  ]\n}\n";
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) return false;
  os.write(out.data(), static_cast<std::streamsize>(out.size()));
  return os.good();
}

}  // namespace rrnet::obs
