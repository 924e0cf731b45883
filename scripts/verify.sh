#!/usr/bin/env bash
# Tier-1 verification: plain build + tests, then the same suite under
# ASan/UBSan (second build dir, registered as the "sanitize" configuration).
#
# Usage: scripts/verify.sh [--with-bench] [--large-n-smoke] [--ab]
#   --with-bench     additionally run the engine benchmark suite and refresh
#                    bench_results/BENCH_engine.json (plain build only; never
#                    benchmark a sanitized binary).
#   --ab             additionally run scripts/ab_rrbench.sh: the benchmark's
#                    ssaf_1m workload, 10 alternating runs each of this tree
#                    and its parent (HEAD when tracked files have uncommitted
#                    edits, HEAD~1 otherwise), about 25 minutes; fails when
#                    their fingerprints differ.
#   --large-n-smoke  additionally run one n=100k SSAF serial row through
#                    abl_large_n with an RSS budget assertion — proves the
#                    bulk-construction / CSR-index path stays within its
#                    memory envelope without waiting out the full sweep.
#
# Every run (with or without --with-bench) executes the bench suite once
# and gates it against the checked-in baseline via scripts/check_bench.py:
# a time or allocation regression beyond the tolerance band fails verify.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc)"
WITH_BENCH=0
LARGE_N_SMOKE=0
AB=0
for arg in "$@"; do
  case "$arg" in
    --with-bench) WITH_BENCH=1 ;;
    --large-n-smoke) LARGE_N_SMOKE=1 ;;
    --ab) AB=1 ;;
    *) echo "unknown flag: $arg" >&2; exit 2 ;;
  esac
done

echo "== header self-containment =="
# Every header must compile standalone (no hidden include-order coupling).
CXX_BIN="${CXX:-c++}"
find src -name '*.hpp' -print0 | sort -z | \
  xargs -0 -P "$JOBS" -I{} "$CXX_BIN" -std=c++20 -fsyntax-only -I src \
    -include {} -x c++ /dev/null || {
      echo "header self-containment check failed" >&2; exit 1; }

echo "== plain build + ctest =="
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

echo "== bench regression gate =="
# The gate only means something against a tracing-free binary: the checked-in
# baseline is measured with RRNET_TRACE off, and the telemetry layer's
# zero-overhead claim is exactly that the compiled-out build costs nothing.
grep -q "RRNET_TRACE:BOOL=OFF" build/CMakeCache.txt || {
  echo "bench gate requires RRNET_TRACE=OFF in build/ (reconfigure)" >&2
  exit 1
}
FRESH_BENCH="$(mktemp /tmp/rrnet_bench.XXXXXX.json)"
EXPORT_DIR="$(mktemp -d /tmp/rrnet_profiled.XXXXXX)"
trap 'rm -f "$FRESH_BENCH"; rm -rf "$EXPORT_DIR"' EXIT
taskset -c 0 ./build/bench/run_bench_suite "$FRESH_BENCH"
python3 scripts/check_bench.py "$FRESH_BENCH"

if [[ "$LARGE_N_SMOKE" == 1 ]]; then
  echo "== large-n smoke (n=100k SSAF serial, RSS budget) =="
  # Budget: the n=100k SSAF row peaks around 195 MiB (the stacks of the
  # nodes its floods reach, built at first contact, + CSR index +
  # scheduler); 512 MiB leaves headroom for allocator noise while still
  # catching every node stack built up front (about 1.1 GiB), or an
  # accidental O(n*K) replication or growth-realloc storm.
  ./build/bench/abl_large_n --nodes 100000 --shards 1 --proto ssaf \
    --rss-budget-mib 512
fi

echo "== sanitize build (address;undefined;trace) + ctest =="
# Tracing is compiled IN here so the sanitizers sweep the tracer hot path
# and the trace-gated test assertions run at least once per verify.
cmake -B build-sanitize -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DRRNET_TRACE=ON \
      "-DRRNET_SANITIZE=address;undefined" >/dev/null
cmake --build build-sanitize -j "$JOBS"
ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=print_stacktrace=1 \
  ctest --test-dir build-sanitize --output-on-failure -j "$JOBS"

echo "== profiled run export (report.json + worker-lane trace) =="
# The sanitize build has RRNET_TRACE=ON, so this small sharded run captures
# real WindowSpan/BarrierWait worker lanes. run_profiled exits non-zero
# when any worker's phase breakdown covers <95% of its round-loop wall
# (the profiler's accounting contract); both artifacts must be valid JSON.
./build-sanitize/bench/run_profiled --scenario fig1 --shards 4 --threads 2 \
  --sim-end 6 --report "$EXPORT_DIR/report.json" \
  --trace "$EXPORT_DIR/trace.json"
python3 -m json.tool "$EXPORT_DIR/report.json" >/dev/null
python3 -m json.tool "$EXPORT_DIR/trace.json" >/dev/null

echo "== tsan build (thread) + sharded/handoff tests =="
# ThreadSanitizer cannot be combined with ASan/UBSan, so the sharded
# engine's inter-thread machinery (spin-barrier windows, the two-barrier
# handoff exchange with its parity-double-buffered window bounds, the one
# owner map every shard reads, per-worker tracer rings) gets its own
# build. sharded_test carries the mobility / fading / fig4-energy
# determinism gates, the first-contact build count of a sharded mobile run
# and the nested replications-x-shards pool test, so TSan sweeps the
# exchange barriers, the LinkRng fading path, and the per-owner energy
# meters on every verify. Only the tests that spawn worker threads or
# exercise the handoff/partition surface run here — the serial suite is
# already swept by the ASan/UBSan configuration above.
cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DRRNET_TRACE=ON \
      "-DRRNET_SANITIZE=thread" >/dev/null
cmake --build build-tsan -j "$JOBS" \
      --target sharded_test channel_test geom_test mobility_test \
               energy_failure_test rng_test
TSAN_OPTIONS=halt_on_error=1 \
  ctest --test-dir build-tsan --output-on-failure -j "$JOBS" \
        -R 'sharded_test|channel_test|geom_test|mobility_test|energy_failure_test|rng_test'

if [[ "$WITH_BENCH" == 1 ]]; then
  echo "== engine bench suite =="
  mkdir -p bench_results
  taskset -c 0 ./build/bench/run_bench_suite bench_results/BENCH_engine.json
fi

if [[ "$AB" == 1 ]]; then
  echo "== interleaved A/B against the parent commit (rrbench) =="
  scripts/ab_rrbench.sh
fi

echo "verify OK"
