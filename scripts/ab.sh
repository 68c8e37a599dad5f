#!/usr/bin/env bash
# A/B comparison of the working tree against a parent revision on one
# perfbench workload, in interleaved pairs:
#
#   scripts/ab.sh <parent-rev> <workload> <pairs> <seconds>
#   scripts/ab.sh HEAD~1 table1-week 10 50
#
# Both sides are copied into a fresh temporary directory: the parent with
# `git archive <parent-rev>`, the change as the working tree (uncommitted
# edits included, build output and run files left out). Each side builds
# into its own target directory there, so the checkout itself, its
# perfbench/Cargo.lock included, is left as it was. Pair i runs both sides
# with seed i; odd pairs run the parent first, even pairs the change.
# Every run goes through `perfbench/run.sh --trace 0` and must read
# `correct: true` and `failed: 0`, or the script stops.
#
# For each end-to-end metric of BENCHMARK.json it prints each side's
# median and quartiles, the pairs the change won (ties count for neither
# side) and the exact two-sided sign-test p-value. Every run's JSON result
# goes to stderr as it arrives.
set -euo pipefail

if [[ $# -ne 4 ]]; then
    echo "usage: scripts/ab.sh <parent-rev> <workload> <pairs> <seconds>" >&2
    exit 2
fi
PARENT_REV="$1"
WORKLOAD="$2"
PAIRS="$3"
SECONDS_PER_RUN="$4"
[[ "$PAIRS" =~ ^[1-9][0-9]*$ ]] || { echo "pairs must be a positive integer" >&2; exit 2; }

cd "$(dirname "$0")/.."
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

mkdir -p "$WORK/parent" "$WORK/change"
git archive "$(git rev-parse --verify "$PARENT_REV^{commit}")" | tar -x -C "$WORK/parent"
tar -c --exclude=./.git --exclude=./target --exclude=./perfbench/target \
    --exclude=./.bench_build --exclude=./.perfbench -f - . | tar -x -C "$WORK/change"

# run <side> <seed> <seconds>: one perfbench run; prints its JSON result.
run() {
    local side="$1" seed="$2" seconds="$3" out
    out=$(cd "$WORK/$side" && CARGO_TARGET_DIR="$WORK/$side/perfbench/target" \
        bash perfbench/run.sh --workload "$WORKLOAD" --seed "$seed" \
        --seconds "$seconds" --trace 0 | tail -n 1)
    if [[ "$out" != *'"correct": true'* || "$out" != *'"failed": 0,'* ]]; then
        echo "$side seed $seed: a run was not correct or had failures: $out" >&2
        exit 1
    fi
    echo "$out"
}

# A short first run per side builds it and checks its output once.
for side in parent change; do
    run "$side" 0 1 >/dev/null
done

RESULTS="$WORK/results"
: >"$RESULTS"
for pair in $(seq 1 "$PAIRS"); do
    if (( pair % 2 == 1 )); then order="parent change"; else order="change parent"; fi
    for side in $order; do
        line=$(run "$side" "$pair" "$SECONDS_PER_RUN")
        echo "pair $pair $side $line" >&2
        printf '%s\t%s\t%s\n' "$pair" "$side" "$line" >>"$RESULTS"
    done
done

python3 - "$RESULTS" BENCHMARK.json "$WORKLOAD" "$PAIRS" "$SECONDS_PER_RUN" <<'EOF'
import json
import sys
from math import comb

results_path, benchmark_path, workload, pairs, seconds = sys.argv[1:]
metrics = json.load(open(benchmark_path))["end_to_end"]
runs = {"parent": {}, "change": {}}
for row in open(results_path):
    pair, side, line = row.rstrip("\n").split("\t", 2)
    metrics_of_run = json.loads(line)["metrics"]
    runs[side][int(pair)] = {name: m["value"] for name, m in metrics_of_run.items()}


def quartiles(values):
    values = sorted(values)

    def at(q):
        pos = q * (len(values) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(values) - 1)
        return values[lo] + (values[hi] - values[lo]) * (pos - lo)

    return at(0.25), at(0.5), at(0.75)


def sign_test(wins, losses):
    n = wins + losses
    if n == 0:
        return 1.0
    k = min(wins, losses)
    return min(1.0, 2 * sum(comb(n, i) for i in range(k + 1)) / 2**n)


print(f"workload {workload}: {pairs} interleaved pairs at {seconds} s")
print(f"{'metric':<13} {'parent median (q1-q3)':>28} {'change median (q1-q3)':>28} {'won':>7} {'p':>7}")
for metric in metrics:
    name = metric["name"]
    if not all(name in m for side in runs.values() for m in side.values()):
        continue
    sign = -1 if metric["better"] == "lower" else 1
    wins = losses = 0
    for pair, parent in runs["parent"].items():
        delta = sign * (runs["change"][pair][name] - parent[name])
        wins += delta > 0
        losses += delta < 0
    cells = []
    for side in ("parent", "change"):
        q1, q2, q3 = quartiles([m[name] for m in runs[side].values()])
        cells.append(f"{q2:.4g} ({q1:.4g}-{q3:.4g})")
    won = f"{wins}/{len(runs['parent'])}"
    print(f"{name:<13} {cells[0]:>28} {cells[1]:>28} {won:>7} {sign_test(wins, losses):>7.3g}")
EOF
