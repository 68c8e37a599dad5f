#!/usr/bin/env bash
# Crash-resume smoke test for `nisqc sweep --journal`: run a reference
# sweep, SIGKILL a journaled run of the same plan mid-flight, resume it
# from the journal, and require the resumed report to be byte-identical
# to the reference in canonical form. Then tear the journal's tail and
# prove recovery truncates and still resumes byte-identically.
#
# Usage: scripts/crash_resume_smoke.sh [path/to/nisqc]
set -euo pipefail

NISQC="${1:-target/release/nisqc}"
DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT

# 3 benchmarks x 6 mappers x 4 days = 72 cells: long enough to be killed
# mid-run (cells simulate in parallel, so the trial count carries the
# run past the 50 ms polls below), small enough for CI.
PLAN=(--benchmarks representative --mappers table1 --days 0..4 --trials 65536)
CELLS=72

echo "reference run..."
"$NISQC" sweep "${PLAN[@]}" --expect-cells "$CELLS" --output "$DIR/ref.json"
"$NISQC" sweep --canonicalize "$DIR/ref.json" --output "$DIR/ref.canon"

echo "journaled run (to be killed)..."
"$NISQC" sweep "${PLAN[@]}" --journal "$DIR/sweep.journal" --output "$DIR/killed.json" &
PID=$!
for _ in $(seq 1 600); do
    if [[ -f "$DIR/sweep.journal" ]] \
        && [[ "$(grep -c '"kind": "cell"' "$DIR/sweep.journal")" -ge 2 ]]; then
        break
    fi
    kill -0 "$PID" 2>/dev/null || { echo "FAIL: journaled run exited before it could be killed"; exit 1; }
    sleep 0.05
done
kill -9 "$PID"
wait "$PID" 2>/dev/null || true
DONE=$(grep -c '"kind": "cell"' "$DIR/sweep.journal")
echo "killed mid-run with $DONE cells journaled"
[[ ! -f "$DIR/killed.json" ]] || { echo "FAIL: killed run still wrote a report"; exit 1; }
[[ "$DONE" -lt "$CELLS" ]] || { echo "FAIL: run finished before the kill; grow the plan"; exit 1; }

echo "resume after SIGKILL..."
"$NISQC" sweep "${PLAN[@]}" --resume "$DIR/sweep.journal" --expect-cells "$CELLS" \
    --output "$DIR/resumed.json" 2>"$DIR/resume.log"
grep -q "resuming from" "$DIR/resume.log" || { echo "FAIL: no resume message"; cat "$DIR/resume.log"; exit 1; }
grep -q "resumed without recomputation" "$DIR/resume.log" || { echo "FAIL: no journal hits"; cat "$DIR/resume.log"; exit 1; }
"$NISQC" sweep --canonicalize "$DIR/resumed.json" --output "$DIR/resumed.canon"
cmp "$DIR/ref.canon" "$DIR/resumed.canon" || { echo "FAIL: resumed report differs from reference"; exit 1; }
echo "ok   resumed report is byte-identical to the uninterrupted run"

echo "resume over a torn journal tail..."
printf 'J1 242 0123456789abcdef {"kind": "cell", "key": {' >> "$DIR/sweep.journal"
"$NISQC" sweep "${PLAN[@]}" --resume "$DIR/sweep.journal" --expect-cells "$CELLS" \
    --output "$DIR/torn.json" 2>"$DIR/torn.log"
grep -q "truncated" "$DIR/torn.log" || { echo "FAIL: no truncation warning"; cat "$DIR/torn.log"; exit 1; }
"$NISQC" sweep --canonicalize "$DIR/torn.json" --output "$DIR/torn.canon"
cmp "$DIR/ref.canon" "$DIR/torn.canon" || { echo "FAIL: torn-tail resume differs from reference"; exit 1; }
echo "ok   torn tail truncated, resume still byte-identical"

echo "crash-resume smoke test passed"
