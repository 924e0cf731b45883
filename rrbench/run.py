#!/usr/bin/env python3
"""rrnet benchmark runner.

Run from the repository root:

    python3 rrbench/run.py --workload rr_2k --seed 1 --seconds 56 --trace 0
    python3 rrbench/run.py --workload all --seed 1 --seconds 56

Builds the simulator and the rrbench binary from source (CMake, build tree
in $CARGO_TARGET_DIR or .bench_build), then runs the workload's scenario as
one fresh process per iteration for about --seconds (at least
MIN_ITERATIONS times, and every scenario of the run at least twice), after
one untimed warm-up iteration. Every iteration prints its scenario,
fingerprint, operations and host-time figures; this script checks that all
iterations of a scenario agree and reports the median of each figure.

A traced run also runs its scenario once on the sharded engine (K = 4
shards, T = 4 threads): its fingerprint must equal the serial one, its run_s
gives the sharding speedup, and it supplies the shard.* / runtime.* metrics.

Operations are the CBR packets originated. A packet fails when its
iteration crashes, times out, delivers nothing or disagrees with the
fingerprint of its scenario. A packet the simulated network loses (Routeless
Routing drops about 1 in 120 when its arbiter gives up) is a correct,
deterministic result of the simulation: it is in the fingerprint and the
run checks it against the workload's delivery floor, but it is not a failed
operation.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
alternates untraced and traced iterations and reports its per-layer metrics,
writing the traced spans as Chrome-trace JSON files under the build tree.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. See README.md.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

MIN_ITERATIONS = 3
RUN_LIMIT_S = 170
BUILD_JOBS = "4"
BENCH_DIR = Path(__file__).resolve().parent
# The same scenario on the sharded engine, run once per traced run.
SHARDED_TWIN = {"rr_2k": "rr_2k_k4", "ssaf_1m": "ssaf_1m_k4"}
SHARDED_PREFIXES = ("shard.", "runtime.")
# Scenarios per untraced run, cycled through by the iterations: the cost of
# one scenario differs by 10% and more from one seed's topology to the next
# (rr_2k: how many discovery floods Routeless Routing needs; ssaf_1m: the
# shape of two floods), so a run's medians span several. Every scenario runs
# at least twice, so its iterations check each other's fingerprint.
VARIANTS = {"rr_2k": 6, "ssaf_1m": 2}
VARIANT_STRIDE = 1_000_003
# Least share of its CBR packets a run must deliver, over all its scenarios:
# Routeless Routing delivers about 99% at rr_2k's load; every SSAF flood of
# ssaf_1m reaches its destination 12 hops away.
MIN_DELIVERY = {"rr_2k": 0.9, "ssaf_1m": 1.0}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    spec_path = Path("BENCHMARK.json")
    if not spec_path.is_file():
        sys.exit("rrbench: BENCHMARK.json not found; "
                 "run from the repository root")
    return json.loads(spec_path.read_text())


def build():
    """Configure and build the rrbench binary; returns its path."""
    if not Path("src", "CMakeLists.txt").is_file():
        sys.exit("rrbench: simulator sources (src/) not found; "
                 "run from the repository root")
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "--target", "rrbench",
                    "-j", BUILD_JOBS], check=True, stdout=sys.stderr)
    return build_dir, build_dir / "rrbench"


def iterate(binary, workload, seed, start, trace_out=None):
    """One iteration as one process; None when it crashed or timed out."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    # The whole run, all iterations, must end within RUN_LIMIT_S.
    timeout = max(1.0, RUN_LIMIT_S - (time.monotonic() - start))
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"rrbench: {workload} iteration timed out")
        return None
    if proc.returncode != 0:
        log(f"rrbench: {workload} iteration exited {proc.returncode}: "
            f"{proc.stderr.strip()}")
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def describe(it):
    s = it["scenario"]
    return (f"scenario: {it['workload']} protocol={s['protocol']} "
            f"n={s['nodes']} terrain={s['terrain_m'][0]:.0f}x"
            f"{s['terrain_m'][1]:.0f} m pairs={s['pairs']} "
            f"(at {s['pair_hops']} hops, bidirectional={s['bidirectional']}) "
            f"seed={s['seed']} K={s['shards']} T={s['threads']} "
            f"sim_end={s['sim_end_s']} s")


def valid_trace(path):
    try:
        json.loads(path.read_text())
        return True
    except (OSError, ValueError) as err:
        log(f"rrbench: trace file {path} is not valid JSON: {err}")
        return False


def scenario_seed(seed, variant):
    """Seed of a run's variant-th scenario (variant 0 runs --seed itself)."""
    return seed + VARIANT_STRIDE * variant


def run_workload(binary, build_dir, workload, seed, seconds, traced):
    """Runs one workload; returns (correct, attempted, failed, figures)."""
    start = time.monotonic()
    trace_dir = build_dir / "trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    # Per-layer numbers have no bound: the traced run keeps to one scenario,
    # so its counts are exact.
    variants = 1 if traced else VARIANTS.get(workload, 1)

    twin, twin_trace = None, None
    if traced:
        name = SHARDED_TWIN[workload]
        twin_trace = trace_dir / f"{name}-seed{seed}.json"
        twin = iterate(binary, name, seed, start, twin_trace)

    # Untimed warm-up: the first process after a build or after another
    # workload meets cold file and page caches. Its fingerprint and packets
    # are checked like any other iteration's.
    warmup = [] if traced else [iterate(binary, workload, seed, start)]

    trace_file = trace_dir / f"{workload}-seed{seed}.json"
    plain, tracing, crashed = [], [], 0
    if None in warmup:
        crashed, warmup = 1, []
    while not crashed:
        want_trace = traced and len(tracing) < len(plain)
        done = tracing if want_trace else plain
        variant = len(done) % variants
        it = iterate(binary, workload, scenario_seed(seed, variant), start,
                     trace_file if want_trace else None)
        if it is None:
            crashed += 1
            break
        it["variant"] = variant
        done.append(it)
        count = len(warmup) + len(plain) + len(tracing) + (twin is not None)
        elapsed = time.monotonic() - start
        # Stop at the iteration boundary nearest to --seconds.
        if (len(plain) >= max(MIN_ITERATIONS, 2 * variants)
                and (tracing or not traced)
                and elapsed + 0.5 * elapsed / count >= seconds):
            break

    if not plain or (traced and not tracing):
        return False, 1, 1, {}
    for it in warmup:
        it["variant"] = 0
    checked = warmup + plain + tracing
    if twin is not None:
        twin["variant"] = 0
        checked.append(twin)
        print(describe(twin))
    # One fingerprint per scenario: every iteration of it must agree.
    expected = {}
    for it in plain:
        if it["variant"] not in expected:
            expected[it["variant"]] = it["fingerprint"]
            print(describe(it))
    correct = crashed == 0
    if traced and twin is None:
        correct = False
    attempted = failed = delivered = 0
    agree = True
    for it in checked:
        attempted += it["sent"]
        want = expected.get(it["variant"])
        if it["fingerprint"] != want:
            correct = agree = False
            failed += it["sent"]
            log(f"rrbench: {it['workload']} fingerprint {it['fingerprint']}"
                f" != {want}")
            continue
        delivered += it["delivered"]
        if it["delivered"] == 0:
            correct = False
            failed += it["sent"]
            log(f"rrbench: {it['workload']} delivered no packets")
    # A crashed iteration's packets all count as failed.
    attempted += crashed * plain[0]["sent"]
    failed += crashed * plain[0]["sent"]
    floor = MIN_DELIVERY[workload]
    if delivered < floor * (attempted - failed):
        correct = False
        log(f"rrbench: {workload} delivered {delivered} of "
            f"{attempted - failed} packets, below its floor of {floor:.0%}")
    print(f"fingerprints: {' '.join(expected.values())} ({len(checked)} "
          f"iterations{' incl. the sharded one' if twin else ''}: "
          f"{'all agree' if agree else 'MISMATCH'})")
    print(f"operations: {attempted} CBR packets sent, {failed} failed; "
          f"the simulated network delivered {delivered} "
          f"(floor {floor:.0%})")
    print("untraced run_s per iteration: "
          + " ".join(f"{it['run_s']:.3f}" for it in plain))

    figures = {key: median([it[key] for it in plain])
               for key in ("setup_s", "run_s", "wall_s", "peak_rss_mib")}
    figures["delivered"] = delivered
    if traced:
        layers = {key: median([it["layers"][key] for it in tracing])
                  for key in tracing[0]["layers"]}
        layers["shard.speedup"] = 0.0
        if twin is not None:
            for key, value in twin["layers"].items():
                if key.startswith(SHARDED_PREFIXES):
                    layers[key] = value
            figures["sharded_run_s"] = twin["run_s"]
            layers["shard.speedup"] = figures["run_s"] / twin["run_s"]
            correct &= valid_trace(twin_trace)
        layers["des.ns_per_event"] = median(
            [it["run_s"] * 1e9 / it["events"] for it in plain])
        traced_run_s = median([it["run_s"] for it in tracing])
        layers["trace.overhead_pct"] = (
            100.0 * (traced_run_s - figures["run_s"]) / figures["run_s"])
        correct &= valid_trace(trace_file)
        print(f"trace: {trace_file} ({len(tracing)} traced, "
              f"{len(plain)} untraced iterations)")
        figures["layers"] = layers
    return correct, attempted, failed, figures


def metrics_block(declared, values):
    out = {}
    for m in declared:
        if m["name"] not in values:
            sys.exit(f"rrbench: metric {m['name']} was not measured")
        out[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    return out


def print_summary(workload, figures, traced):
    if "sharded_run_s" in figures:
        sharded = figures["sharded_run_s"]
        serial = figures["run_s"]
        print(f"summary: {workload} sharding speedup run_s(K=1)/run_s(K=4) = "
              f"{serial:.3f} s / {sharded:.3f} s = {serial / sharded:.3f}")
    if traced:
        print(f"summary: {workload} trace.overhead_pct = "
              f"{figures['layers']['trace.overhead_pct']:.1f}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        sys.exit(f"rrbench: unknown workload {args.workload}; "
                 f"one of {', '.join(names)} or all")
    build_dir, binary = build()

    if args.workload != "all":
        traced = bool(args.trace)
        correct, attempted, failed, figures = run_workload(
            binary, build_dir, args.workload, args.seed, args.seconds, traced)
        metrics = {}
        if figures:
            print_summary(args.workload, figures, traced)
            if traced:
                metrics = metrics_block(spec["per_layer"], figures["layers"])
            else:
                metrics = metrics_block(spec["end_to_end"], figures)
        print(json.dumps({"correct": correct, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 0

    # Every workload, end to end and traced, as one table.
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for name in names:
        for traced in (False, True):
            correct, attempted, failed, figures = run_workload(
                binary, build_dir, name, args.seed, args.seconds, traced)
            total["correct"] &= correct
            total["attempted"] += attempted
            total["failed"] += failed
            if not figures:
                continue
            print_summary(name, figures, traced)
            if traced:
                block = metrics_block(spec["per_layer"], figures["layers"])
            else:
                block = metrics_block(spec["end_to_end"], figures)
                rows.append((name, figures, attempted, failed))
            for metric, entry in block.items():
                total["metrics"][f"{name}.{metric}"] = entry
    print(f"{'workload':<10} {'setup_s':>9} {'run_s':>9} {'wall_s':>9} "
          f"{'peak_rss_mib':>13} {'sent':>6} {'failed':>6} {'delivered':>9}")
    for name, f, attempted, failed in rows:
        print(f"{name:<10} {f['setup_s']:>9.4f} {f['run_s']:>9.3f} "
              f"{f['wall_s']:>9.3f} {f['peak_rss_mib']:>13.1f} "
              f"{attempted:>6} {failed:>6} {f['delivered']:>9}")
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
