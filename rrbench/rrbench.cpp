// One iteration of one rrnet benchmark workload, as one process.
//
//   rrbench --workload NAME --seed N [--trace-out FILE]
//
// NAME is rr_2k or ssaf_1m, or their 4-shard twins rr_2k_k4 and ssaf_1m_k4.
//
// Builds the workload's scenario (endpoints from bench_lib's bounded-hop
// picker), runs it once and prints one JSON line: the full scenario, the
// correctness fingerprint, operations (CBR packets sent / delivered) and the
// host-time end-to-end figures setup_s, run_s, wall_s and peak_rss_mib.
// Times are wall clock of this machine, never simulated time.
//
// With --trace-out the run is traced instead: spans recorded from this file
// around the calls into each layer (sampled per-event spans, kept in memory
// and written as a Chrome-trace JSON file at the end), plus kernel replays of
// geom and phy on the workload's own positions. The JSON line then also
// carries a "layers" object with every per-layer metric. run.py repeats
// iterations, takes medians and checks the fingerprints.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <string_view>
#include <vector>

#include "bench_lib.hpp"
#include "des/scheduler.hpp"
#include "geom/placement.hpp"
#include "geom/spatial_grid.hpp"
#include "obs/profiler.hpp"
#include "phy/channel.hpp"
#include "phy/propagation.hpp"
#include "sim/builder.hpp"
#include "sim/sharded.hpp"

// ---------------------------------------------------------------------------
// Allocation interposer: every global new in this binary bumps a counter
// (util.setup_allocs, util.allocs_per_event).
// ---------------------------------------------------------------------------
namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) & ~(a - 1))) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace rrbench;
namespace phy = rrnet::phy;
using Clock = std::chrono::steady_clock;

std::uint64_t allocs() { return g_allocs.load(std::memory_order_relaxed); }

double seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::uint64_t nanos(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

// ---------------------------------------------------------------------------
// Tracing: spans in memory, exported as a Chrome trace.
// ---------------------------------------------------------------------------

struct Span {
  const char* name;
  Clock::time_point start;
  Clock::time_point end;
  std::uint32_t id;
  std::uint32_t parent;  ///< 0 = root
  std::uint32_t tid;
};

class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {
    spans_.reserve(kCapacity);
  }
  /// Record a span; returns its id (0 when the log is full).
  std::uint32_t add(const char* name, Clock::time_point start,
                    Clock::time_point end, std::uint32_t parent,
                    std::uint32_t tid = 1) {
    if (spans_.size() >= kCapacity) return 0;
    const auto id = static_cast<std::uint32_t>(spans_.size() + 1);
    spans_.push_back({name, start, end, id, parent, tid});
    return id;
  }
  /// Reserve an id for a span whose end is not known yet.
  std::uint32_t open(const char* name, Clock::time_point start,
                     std::uint32_t parent) {
    return add(name, start, start, parent);
  }
  void close(std::uint32_t id, Clock::time_point end) {
    if (id != 0) spans_[id - 1].end = end;
  }
  [[nodiscard]] bool full() const { return spans_.size() >= kCapacity; }

  bool write_chrome(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("{\"traceEvents\":[", f);
    bool first = true;
    for (const Span& s : spans_) {
      const double ts = std::chrono::duration<double, std::micro>(
                            s.start - origin_).count();
      const double dur =
          std::chrono::duration<double, std::micro>(s.end - s.start).count();
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,"
                   "\"parent\":%u}}",
                   first ? "" : ",", s.name, s.tid, ts, dur, s.id, s.parent);
      first = false;
    }
    std::fputs("\n],\"displayTimeUnit\":\"ns\"}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  static constexpr std::size_t kCapacity = 1u << 16;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Exact nanosecond latency histogram (1 ns buckets up to 64 us, one
/// overflow bucket) for the per-event and per-upcall spans.
class LatencyHist {
 public:
  void add(std::uint64_t ns) {
    ++buckets_[std::min<std::uint64_t>(ns, kMax)];
    ++count_;
    sum_ += ns;
  }
  [[nodiscard]] double percentile(double p) const {
    if (count_ == 0) return 0.0;
    const auto rank = static_cast<std::uint64_t>(
        p * static_cast<double>(count_ - 1));
    std::uint64_t seen = 0;
    for (std::size_t ns = 0; ns <= kMax; ++ns) {
      seen += buckets_[ns];
      if (seen > rank) return static_cast<double>(ns);
    }
    return static_cast<double>(kMax);
  }
  [[nodiscard]] std::uint64_t sum() const { return sum_; }

 private:
  static constexpr std::uint64_t kMax = 65536;
  std::vector<std::uint64_t> buckets_ = std::vector<std::uint64_t>(kMax + 1);
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
};

/// Shared state of the PHY->MAC boundary probes.
struct UpcallProbe {
  LatencyHist hist;
  int depth = 0;  ///< nested upcalls are part of the outermost one
  Clock::time_point start{};
  SpanLog* log = nullptr;
  std::uint32_t sampled_parent = 0;  ///< step span id when this step is kept
};

/// Forwarding listener interposed between a Transceiver and its CsmaMac:
/// times every upcall (MAC + net + core + proto + app below it).
class UpcallTimer final : public phy::RadioListener {
 public:
  UpcallTimer(phy::RadioListener* inner, UpcallProbe* probe)
      : inner_(inner), probe_(probe) {}

  void on_receive(const phy::Airframe& frame,
                  const phy::RxInfo& info) override {
    enter();
    inner_->on_receive(frame, info);
    leave();
  }
  void on_tx_done(std::uint64_t frame_id) override {
    enter();
    inner_->on_tx_done(frame_id);
    leave();
  }
  void on_medium_changed(bool busy) override {
    enter();
    inner_->on_medium_changed(busy);
    leave();
  }

 private:
  void enter() {
    if (probe_->depth++ == 0) probe_->start = Clock::now();
  }
  void leave() {
    if (--probe_->depth != 0) return;
    const Clock::time_point end = Clock::now();
    probe_->hist.add(nanos(probe_->start, end));
    if (probe_->sampled_parent != 0) {
      probe_->log->add("mac.upcall", probe_->start, end,
                       probe_->sampled_parent);
    }
  }

  phy::RadioListener* inner_ = nullptr;
  UpcallProbe* probe_ = nullptr;
};

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

class JsonObject {
 public:
  void num(std::string_view key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    raw(key, buf);
  }
  void u64(std::string_view key, std::uint64_t v) {
    raw(key, std::to_string(v));
  }
  void str(std::string_view key, std::string_view v) {
    raw(key, "\"" + std::string(v) + "\"");
  }
  void raw(std::string_view key, const std::string& json) {
    body_ += body_.empty() ? "{" : ",";
    body_ += "\"" + std::string(key) + "\":" + json;
  }
  [[nodiscard]] std::string done() const {
    return body_.empty() ? "{}" : body_ + "}";
  }

 private:
  std::string body_;
};

struct Timings {
  double setup_s = 0.0;
  double run_s = 0.0;
  double wall_s = 0.0;
  std::uint64_t setup_allocs = 0;
  std::uint64_t run_allocs = 0;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Counts from ScenarioResult::metrics and their ratios (exact).
void add_count_layers(const sim::ScenarioResult& r, JsonObject& layers) {
  const auto v = [&](std::string_view name) {
    return static_cast<double>(r.metrics.value(name));
  };
  for (const std::string_view name :
       {"phy.transmissions", "phy.signals_arrived", "phy.rx_decoded",
        "phy.drop_collision", "mac.data_tx", "mac.ack_tx", "mac.backoffs",
        "mac.retries", "mac.unicast_failures", "mac.queue_drops",
        "net.tx_data", "net.tx_control", "net.dup_cache_hits",
        "election.armed", "election.won", "arbiter.retransmits",
        "pool.object_heap_allocs", "shard.rounds", "shard.exchange_rounds",
        "shard.handoffs", "shard.bound_armed_tx", "shard.bound_pending_phy",
        "shard.bound_next_event"}) {
    layers.u64(name, r.metrics.value(name));
  }
  layers.u64("des.events", r.events_executed);
  layers.u64("des.queue_high_water", r.metrics.value("des.heap_high_water"));
  layers.u64("app.sent", r.sent);
  layers.u64("app.delivered", r.delivered);
  layers.num("phy.signals_per_tx",
             ratio(v("phy.signals_arrived"), v("phy.transmissions")));
  layers.num("phy.decode_ratio",
             ratio(v("phy.rx_decoded"), v("phy.signals_arrived")));
  layers.num("mac.retry_ratio", ratio(v("mac.retries"), v("mac.data_tx")));
  layers.num("net.control_per_delivered",
             ratio(v("net.tx_control"), static_cast<double>(r.delivered)));
  layers.num("election.win_ratio",
             ratio(v("election.won"), v("election.armed")));
  layers.num("shard.events_per_round",
             ratio(static_cast<double>(r.events_executed), v("shard.rounds")));
}

/// Kernel replays of geom and phy on the workload's own positions.
void add_kernel_layers(const sim::ScenarioConfig& config, SpanLog& log,
                       std::uint32_t root, JsonObject& layers) {
  const geom::Terrain terrain(config.width_m, config.height_m);
  const double n = static_cast<double>(config.nodes);

  // Placement, exactly as the builder draws it.
  Clock::time_point t0 = Clock::now();
  std::vector<geom::Vec2> positions = builder_positions(config);
  Clock::time_point t1 = Clock::now();
  log.add("geom.place", t0, t1, root);
  layers.num("geom.place_ns_per_node", static_cast<double>(nanos(t0, t1)) / n);

  // PHY walk: a channel with null listeners, transmitting from a fixed
  // sample of senders, one frame at a time, drained between frames.
  des::Scheduler sched;
  phy::RadioParams radio = config.radio;
  radio.tx_power_dbm = phy::tx_power_for_range(
      phy::FreeSpace(radio.frequency_hz), config.range_m,
      radio.rx_threshold_dbm);
  t0 = Clock::now();
  phy::Channel channel(sched, terrain,
                       std::make_unique<phy::FreeSpace>(radio.frequency_hz),
                       radio, positions, des::Rng(config.seed));
  t1 = Clock::now();
  log.add("phy.channel_build", t0, t1, root);
  const double cell = channel.interference_range_m();

  // Grid build with the channel's cell size (the interference range).
  t0 = Clock::now();
  auto grid = std::make_unique<geom::SpatialGrid>(terrain, cell, positions);
  t1 = Clock::now();
  log.add("geom.grid_build", t0, t1, root);
  layers.num("geom.grid_build_ns_per_node",
             static_cast<double>(nanos(t0, t1)) / n);
  layers.num("geom.index_mib",
             static_cast<double>(grid->index_bytes()) / (1024.0 * 1024.0));

  // Interference-radius queries around a fixed sample of nodes.
  constexpr std::size_t kQueries = 8192;
  const std::size_t stride = std::max<std::size_t>(1, config.nodes / kQueries);
  std::vector<std::uint32_t> out;
  std::size_t queries = 0;
  t0 = Clock::now();
  for (std::size_t id = 0; id < config.nodes && queries < kQueries;
       id += stride, ++queries) {
    grid->query(positions[id], cell, out);
  }
  t1 = Clock::now();
  log.add("geom.query", t0, t1, root);
  layers.num("geom.query_ns",
             static_cast<double>(nanos(t0, t1)) / static_cast<double>(queries));
  grid.reset();

  constexpr std::size_t kSenders = 512;
  const std::size_t sender_stride =
      std::max<std::size_t>(1, config.nodes / kSenders);
  t0 = Clock::now();
  for (std::size_t id = 0; id < config.nodes; id += sender_stride) {
    phy::Airframe frame;
    frame.sender = static_cast<std::uint32_t>(id);
    frame.id = channel.next_frame_id(frame.sender);
    frame.size_bytes = config.payload_bytes;
    channel.transmit(frame);
    sched.run();
  }
  t1 = Clock::now();
  log.add("phy.walk", t0, t1, root);
  std::uint64_t signals = 0;
  for (std::uint32_t id = 0; id < channel.node_count(); ++id) {
    signals += channel.transceiver(id).stats().signals_arrived;
  }
  layers.num("phy.walk_ns_per_signal",
             ratio(static_cast<double>(nanos(t0, t1)),
                   static_cast<double>(signals)));
}

/// Serial run through SimInstance. When `probe` is set, the event loop is
/// driven step by step and every step and upcall is timed.
sim::ScenarioResult run_serial(const sim::ScenarioConfig& config, Timings& t,
                               UpcallProbe* probe, LatencyHist* steps,
                               SpanLog* log, std::uint32_t root) {
  const std::uint64_t a0 = allocs();
  const Clock::time_point t0 = Clock::now();
  auto inst = std::make_unique<sim::SimInstance>(config);
  const Clock::time_point t1 = Clock::now();
  const std::uint64_t a1 = allocs();

  std::vector<UpcallTimer> timers;
  if (probe == nullptr) {
    inst->run();
  } else {
    // Interpose the forwarding listeners (PHY -> MAC boundary).
    rrnet::net::Network& network = inst->network();
    timers.reserve(network.size());
    for (std::uint32_t id = 0; id < network.size(); ++id) {
      timers.emplace_back(&network.node(id).mac(), probe);
      network.channel().transceiver(id).attach(timers.back());
    }
    rrnet::des::Scheduler& sched = inst->scheduler();
    const std::uint32_t run_span = log->open("sim.run", Clock::now(), root);
    inst->run_until(0.0);  // starts protocols and traffic
    std::uint64_t step_index = 0;
    while (sched.next_event_time() <= config.sim_end) {
      // Keep one step in 256 (and its upcalls) as spans.
      const bool keep = (step_index++ & 255) == 0 && !log->full();
      const Clock::time_point s0 = Clock::now();
      std::uint32_t span = 0;
      if (keep) {
        span = log->open("des.step", s0, run_span);
        probe->sampled_parent = span;
      }
      sched.step();
      const Clock::time_point s1 = Clock::now();
      steps->add(nanos(s0, s1));
      if (keep) {
        log->close(span, s1);
        probe->sampled_parent = 0;
      }
    }
    inst->run_until(config.sim_end);
    log->close(run_span, Clock::now());
  }
  const Clock::time_point t2 = Clock::now();
  const std::uint64_t a2 = allocs();
  sim::ScenarioResult result = inst->result();
  const Clock::time_point t3 = Clock::now();
  inst.reset();
  const Clock::time_point t4 = Clock::now();

  if (log != nullptr) {
    log->add("sim.setup", t0, t1, root);
    log->add("sim.result", t2, t3, root);
    log->add("sim.teardown", t3, t4, root);
  }
  t.setup_s = seconds(t0, t1);
  t.run_s = seconds(t1, t2);
  t.wall_s = seconds(t0, t4);
  t.setup_allocs = a1 - a0;
  t.run_allocs = a2 - a1;
  return result;
}

/// Sharded run. setup_s is the run_scenario_sharded wall time minus the
/// slowest worker's round loop; run_s is that round loop.
sim::ScenarioResult run_sharded(sim::ScenarioConfig config, Timings& t,
                                JsonObject* layers, SpanLog* log,
                                std::uint32_t root) {
  obs::RunHealthMonitor monitor;
  config.health_monitor = &monitor;
  const std::uint64_t a0 = allocs();
  const Clock::time_point t0 = Clock::now();
  sim::ScenarioResult result = sim::run_scenario_sharded(config);
  const Clock::time_point t1 = Clock::now();
  const std::uint64_t a1 = allocs();

  std::uint64_t loop_ns = 0;
  std::uint64_t exec_max = 0;
  std::uint64_t exec_sum = 0;
  for (const auto& w : monitor.worker_phases()) {
    loop_ns = std::max(loop_ns, w.loop_ns);
    exec_max = std::max(exec_max, w.execute_ns);
    exec_sum += w.execute_ns;
  }
  t.wall_s = seconds(t0, t1);
  t.run_s = static_cast<double>(loop_ns) * 1e-9;
  t.setup_s = t.wall_s - t.run_s;
  t.run_allocs = a1 - a0;

  if (layers != nullptr) {
    const auto& phases = monitor.worker_phases();
    std::uint64_t exec = 0, wait = 0, exch = 0;
    for (const auto& w : phases) {
      exec += w.execute_ns;
      wait += w.barrier_wait_ns;
      exch += w.exchange_ns;
    }
    layers->num("runtime.execute_s", static_cast<double>(exec) * 1e-9);
    layers->num("runtime.barrier_wait_s", static_cast<double>(wait) * 1e-9);
    layers->num("runtime.exchange_s", static_cast<double>(exch) * 1e-9);
    layers->num("runtime.barrier_wait_pct",
                100.0 * ratio(static_cast<double>(wait),
                              static_cast<double>(exec + wait + exch)));
    layers->num("runtime.worker_imbalance",
                phases.empty() ? 0.0
                               : ratio(static_cast<double>(exec_max) *
                                           static_cast<double>(phases.size()),
                                       static_cast<double>(exec_sum)));
    const std::uint32_t span = log->add("sim.run_scenario_sharded", t0, t1,
                                        root);
    // Per-worker phase totals laid end to end on one lane per worker.
    for (std::size_t w = 0; w < phases.size(); ++w) {
      const auto tid = static_cast<std::uint32_t>(w + 2);
      Clock::time_point at = t1 - std::chrono::nanoseconds(phases[w].loop_ns);
      const std::pair<const char*, std::uint64_t> parts[] = {
          {"runtime.execute", phases[w].execute_ns},
          {"runtime.barrier_wait", phases[w].barrier_wait_ns},
          {"runtime.exchange", phases[w].exchange_ns}};
      for (const auto& [name, ns] : parts) {
        const Clock::time_point end = at + std::chrono::nanoseconds(ns);
        log->add(name, at, end, span, tid);
        at = end;
      }
    }
  }
  return result;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string scenario_json(const Workload& w, const sim::ScenarioConfig& c) {
  JsonObject s;
  s.str("protocol", sim::to_string(c.protocol));
  s.u64("nodes", c.nodes);
  s.raw("terrain_m", "[" + std::to_string(c.width_m) + "," +
                         std::to_string(c.height_m) + "]");
  std::string pairs = "[";
  for (const Pair& p : c.explicit_pairs) {
    if (pairs.size() > 1) pairs += ",";
    pairs += "[" + std::to_string(p.first) + "," + std::to_string(p.second) +
             "]";
  }
  s.raw("pairs", pairs + "]");
  s.u64("pair_hops", static_cast<std::uint64_t>(w.pair_hops));
  s.raw("bidirectional", c.bidirectional ? "true" : "false");
  s.u64("seed", c.seed);
  s.u64("shards", c.shards);
  s.u64("threads", c.shards > 1 ? c.shard_threads : 1);
  s.num("sim_end_s", c.sim_end);
  return s.done();
}

int usage() {
  std::fprintf(stderr,
               "usage: rrbench --workload NAME --seed N [--trace-out FILE]\n"
               "workloads:");
  for (const Workload& w : workloads()) {
    std::fprintf(stderr, " %.*s", static_cast<int>(w.name.size()),
                 w.name.data());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string_view workload_name;
  std::uint64_t seed = 0;
  bool have_seed = false;
  std::string trace_out;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    if (flag == "--workload") {
      workload_name = argv[i + 1];
    } else if (flag == "--seed") {
      char* end = nullptr;
      seed = std::strtoull(argv[i + 1], &end, 10);
      have_seed = end != argv[i + 1] && *end == '\0';
    } else if (flag == "--trace-out") {
      trace_out = argv[i + 1];
    } else {
      return usage();
    }
  }
  const Workload* workload = find_workload(workload_name);
  if (workload == nullptr || !have_seed || argc % 2 == 0) return usage();

  const sim::ScenarioConfig config = make_config(*workload, seed);
  if (config.explicit_pairs.size() != workload->pairs) {
    std::fprintf(stderr, "rrbench: found only %zu of %zu pairs at %d hops\n",
                 config.explicit_pairs.size(), workload->pairs,
                 workload->pair_hops);
    return 3;
  }

  const bool traced = !trace_out.empty();
  const Clock::time_point origin = Clock::now();
  SpanLog log(origin);
  JsonObject layers;
  Timings t;
  sim::ScenarioResult result;
  std::uint32_t root = 0;
  if (traced) root = log.open("rrbench.iteration", origin, 0);

  if (config.shards > 1) {
    result = run_sharded(config, t, traced ? &layers : nullptr, &log, root);
  } else if (traced) {
    UpcallProbe probe;
    probe.log = &log;
    LatencyHist steps;
    result = run_serial(config, t, &probe, &steps, &log, root);
    layers.num("des.step_ns_p50", steps.percentile(0.50));
    layers.num("des.step_ns_p99", steps.percentile(0.99));
    layers.num("mac.upcall_ns_p50", probe.hist.percentile(0.50));
    layers.num("mac.upcall_share",
               ratio(static_cast<double>(probe.hist.sum()),
                     static_cast<double>(steps.sum())));
  } else {
    result = run_serial(config, t, nullptr, nullptr, nullptr, 0);
  }
  const double peak_rss_mib = obs::RunHealthMonitor::process_rss_mib();

  if (traced) {
    const double events = static_cast<double>(result.events_executed);
    layers.num("util.allocs_per_event",
               ratio(static_cast<double>(t.run_allocs), events));
    layers.u64("util.setup_allocs", t.setup_allocs);
    if (config.shards == 1) {
      // A serial run has no rounds; the sharded twin supplies these.
      for (const char* name :
           {"runtime.execute_s", "runtime.barrier_wait_s",
            "runtime.exchange_s", "runtime.barrier_wait_pct",
            "runtime.worker_imbalance"}) {
        layers.num(name, 0.0);
      }
    }
    add_count_layers(result, layers);
    add_kernel_layers(config, log, root, layers);
    log.close(root, Clock::now());
    if (!log.write_chrome(trace_out)) {
      std::fprintf(stderr, "rrbench: cannot write %s\n", trace_out.c_str());
      return 4;
    }
  }

  JsonObject out;
  out.str("workload", workload->name);
  out.raw("scenario", scenario_json(*workload, config));
  out.str("fingerprint", hex64(fingerprint(result)));
  out.u64("sent", result.sent);
  out.u64("delivered", result.delivered);
  out.u64("events", result.events_executed);
  out.num("setup_s", t.setup_s);
  out.num("run_s", t.run_s);
  out.num("wall_s", t.wall_s);
  out.num("peak_rss_mib", peak_rss_mib);
  if (traced) out.raw("layers", layers.done());
  std::printf("%s\n", out.done().c_str());
  return 0;
}
