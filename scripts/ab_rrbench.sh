#!/usr/bin/env bash
# Interleaved A/B of the rrnet benchmark (rrbench/run.py): the checked-out
# tree ("change") against the merge-base of HEAD and a base revision
# ("parent"), run alternately on this machine so both sides see the same
# host noise.
#
# Usage: scripts/ab_rrbench.sh [--base REV] [--pairs N] [--workload W]
#                              [--seed S]
#   --base REV    parent = git merge-base HEAD REV (default: HEAD when
#                 tracked files differ from HEAD, so uncommitted edits are
#                 compared with the commit they sit on; HEAD~1 otherwise)
#   --pairs N     parent/change run pairs, at least 10 (default 10)
#   --workload W  rrbench workload (default ssaf_1m)
#   --seed S      scenario seed (default 1)
#
# Every run gets the time budget BENCHMARK.json fixes (`run_seconds`).
# The parent is `git archive`d into a fresh directory under ${TMPDIR:-/tmp},
# and each tree builds into its own CARGO_TARGET_DIR there. The change side
# is the working tree as it is, uncommitted edits included. Pairs alternate
# which side runs first. For each end-to-end metric the script prints both
# sides' median and quartiles and how many pairs the change won (every
# metric is lower-is-better). It exits non-zero if a run fails or is not
# correct, or if the two sides print different `fingerprints:` hashes.
set -euo pipefail
cd "$(dirname "$0")/.."

if git diff --quiet HEAD; then BASE="HEAD~1"; else BASE="HEAD"; fi
PAIRS=10
WORKLOAD="ssaf_1m"
SEED=1
while [[ $# -gt 0 ]]; do
  case "$1" in
    --base) BASE="$2"; shift 2 ;;
    --pairs) PAIRS="$2"; shift 2 ;;
    --workload) WORKLOAD="$2"; shift 2 ;;
    --seed) SEED="$2"; shift 2 ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done
if (( PAIRS < 10 )); then
  echo "ab_rrbench: --pairs must be at least 10" >&2
  exit 2
fi

REPO="$(pwd)"
SECONDS_PER_RUN="$(python3 -c \
  'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
  BENCHMARK.json)"
PARENT_REV="$(git merge-base HEAD "$BASE")"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/rrnet_ab.XXXXXX")"
mkdir -p "$WORK/parent" "$WORK/logs"
git archive "$PARENT_REV" | tar -x -C "$WORK/parent"
echo "ab_rrbench: parent $(git rev-parse --short "$PARENT_REV") in $WORK/parent;" \
     "change = working tree of $REPO"
echo "ab_rrbench: $PAIRS pairs of $WORKLOAD, seed $SEED, ${SECONDS_PER_RUN} s per run"

run_side() {  # side pair
  local side="$1" pair="$2" tree
  if [[ "$side" == parent ]]; then tree="$WORK/parent"; else tree="$REPO"; fi
  (cd "$tree" && CARGO_TARGET_DIR="$WORK/build_$side" \
     python3 rrbench/run.py --workload "$WORKLOAD" --seed "$SEED" \
       --seconds "$SECONDS_PER_RUN" --trace 0) \
    > "$WORK/logs/$side.$pair.out" 2> "$WORK/logs/$side.$pair.err" || {
      echo "ab_rrbench: $side run $pair failed; see $WORK/logs/$side.$pair.err" >&2
      exit 1
    }
  echo "  pair $pair $side: $(grep '^untraced run_s' "$WORK/logs/$side.$pair.out")"
}

for ((pair = 0; pair < PAIRS; ++pair)); do
  if (( pair % 2 == 0 )); then
    run_side parent "$pair"; run_side change "$pair"
  else
    run_side change "$pair"; run_side parent "$pair"
  fi
done

python3 - "$WORK/logs" "$PAIRS" <<'EOF'
import json
import sys
from pathlib import Path
from statistics import median, quantiles

logs, pairs = Path(sys.argv[1]), int(sys.argv[2])
METRICS = ("setup_s", "run_s", "wall_s", "peak_rss_mib")


def load(side, pair):
    lines = (logs / f"{side}.{pair}.out").read_text().splitlines()
    result = json.loads(lines[-1])
    prints = [l.split("(")[0].split()[1:] for l in lines
              if l.startswith("fingerprints:")]
    return result, prints


runs = {side: [load(side, p) for p in range(pairs)]
        for side in ("parent", "change")}
status = 0
for side, results in runs.items():
    if not all(r["correct"] and r["failed"] == 0 for r, _ in results):
        print(f"ab_rrbench: a {side} run was not correct or failed packets")
        status = 1
fingerprints = {side: {tuple(map(tuple, f)) for _, f in results}
                for side, results in runs.items()}
print(f"fingerprints parent: {sorted(fingerprints['parent'])}")
print(f"fingerprints change: {sorted(fingerprints['change'])}")
if fingerprints["parent"] != fingerprints["change"] or \
        len(fingerprints["parent"]) != 1:
    print("ab_rrbench: FINGERPRINTS DIFFER")
    status = 1

print(f"{'metric':<13} {'parent median [q1, q3]':>28} "
      f"{'change median [q1, q3]':>28} {'delta':>8} {'wins':>6} {'> IQR':>6}")
for m in METRICS:
    a = [r["metrics"][m]["value"] for r, _ in runs["parent"]]
    b = [r["metrics"][m]["value"] for r, _ in runs["change"]]
    qa, qb = quantiles(a, n=4), quantiles(b, n=4)
    wins = sum(y < x for x, y in zip(a, b))
    beyond = median(a) - median(b) > qa[2] - qa[0]
    print(f"{m:<13} {median(a):>10.4g} [{qa[0]:.4g}, {qa[2]:.4g}]"
          f"{'':>2} {median(b):>10.4g} [{qb[0]:.4g}, {qb[2]:.4g}]"
          f"{'':>2} {100 * (median(b) / median(a) - 1):>+7.1f}% "
          f"{wins:>3}/{pairs:<2} {'yes' if beyond else 'no':>6}")
sys.exit(status)
EOF
