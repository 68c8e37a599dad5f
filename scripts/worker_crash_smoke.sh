#!/usr/bin/env bash
# Smoke test for the supervised multi-worker serve: boot three worker
# shards over a shared journal directory, SIGKILL whichever shard a
# journaled sweep is routed to mid-run, and require that the fleet stays
# live, the (re)tried request succeeds, and the dead shard is restarted
# exactly once. Then SIGKILL a second fleet's supervisor and require its
# workers to exit with it.
#
# Usage: scripts/worker_crash_smoke.sh [path/to/nisqc]
set -euo pipefail

NISQC="${1:-target/release/nisqc}"
PORT="${WORKER_SMOKE_PORT:-7982}"
ADDR="127.0.0.1:${PORT}"
DIR="$(mktemp -d)"
LOG="$(mktemp)"

"$NISQC" serve --listen "$ADDR" --workers 3 \
    --journal-dir "$DIR/journals" --runtime-dir "$DIR/run" 2>"$LOG" &
SUP_PID=$!
trap 'kill -9 $SUP_PID 2>/dev/null || true; rm -rf "$DIR"' EXIT

# Wait for the whole fleet to come up.
for _ in $(seq 1 200); do
    grep -q "supervising 3 workers" "$LOG" && break
    kill -0 $SUP_PID 2>/dev/null || { echo "supervisor died early"; cat "$LOG"; exit 1; }
    sleep 0.1
done
grep -q "supervising 3 workers" "$LOG" || { echo "supervisor never came up"; cat "$LOG"; exit 1; }

# One request, one response line, via a short-lived TCP client.
request() {
    python3 - "$ADDR" "$1" <<'EOF'
import socket, sys
host, port = sys.argv[1].rsplit(":", 1)
with socket.create_connection((host, int(port)), timeout=120) as s:
    s.sendall(sys.argv[2].encode() + b"\n")
    f = s.makefile("r")
    print(f.readline().strip())
EOF
}

# A sweep heavy enough (720 cells) to stay in flight for seconds — the
# kill window — journaled so the surviving shard can replay the dead
# shard's finished prefix instead of recomputing it.
RUN='{"op": "run", "id": "smoke", "resume_key": "worker-crash-smoke", "plan": {"benchmarks": "all", "mappers": "table1", "days": "0..10", "trials": 65536, "sim_seed": 1, "journal": true}}'

RESP_FILE="$DIR/first-response"
( request "$RUN" > "$RESP_FILE" ) &
REQ_PID=$!

# Find the shard the sweep landed on and SIGKILL it mid-run.
VICTIM=""
for _ in $(seq 1 200); do
    VICTIM=$(request '{"op": "stats"}' | python3 -c '
import json, sys
stats = json.load(sys.stdin)["stats"]
busy = [w["pid"] for w in stats["workers"] if w["pending"] > 0]
print(busy[0] if busy else "")')
    [[ -n "$VICTIM" ]] && break
    sleep 0.05
done
[[ -n "$VICTIM" ]] || { echo "FAIL: sweep was never routed to a shard"; exit 1; }
kill -9 "$VICTIM"
echo "ok   SIGKILLed worker pid $VICTIM mid-sweep"

# The fleet answers while the sweep fails over.
R=$(request '{"op": "ping", "id": "live"}')
[[ "$R" == *'"status": "ok"'* ]] || { echo "FAIL: fleet not live after kill: $R"; exit 1; }
echo "ok   fleet live during failover"

# The in-flight request resolves: transparently re-dispatched (ok) or,
# at worst, a coded retryable loss.
wait $REQ_PID
FIRST=$(cat "$RESP_FILE")
case "$FIRST" in
    *'"status": "ok"'*) echo "ok   transparent failover" ;;
    *'"code": "worker-lost"'*) echo "ok   coded retryable loss" ;;
    *) echo "FAIL: unexpected first response: $FIRST"; exit 1 ;;
esac

# A retried identical request succeeds, served from the shared journal.
R=$(request "$RUN")
[[ "$R" == *'"status": "ok"'* ]] || { echo "FAIL: retried request failed: $R"; exit 1; }
echo "ok   retried request succeeds"

# The dead shard comes back: every shard alive, exactly one restart.
RESTARTS=""
for _ in $(seq 1 200); do
    RESTARTS=$(request '{"op": "stats"}' | python3 -c '
import json, sys
stats = json.load(sys.stdin)["stats"]
alive = all(w["alive"] for w in stats["workers"])
print(stats["supervisor"]["restarts"] if alive else "")')
    [[ -n "$RESTARTS" ]] && break
    sleep 0.1
done
[[ "$RESTARTS" == "1" ]] || { echo "FAIL: expected exactly one restart, got '${RESTARTS}'"; exit 1; }
echo "ok   exactly one restart"

# SIGINT shuts the fleet down cleanly with exit 0.
kill -INT $SUP_PID
for _ in $(seq 1 100); do
    kill -0 $SUP_PID 2>/dev/null || break
    sleep 0.1
done
if kill -0 $SUP_PID 2>/dev/null; then
    echo "FAIL shutdown: supervisor still running after SIGINT"
    exit 1
fi
STATUS=0
wait $SUP_PID || STATUS=$?
if [[ $STATUS -ne 0 ]]; then
    echo "FAIL shutdown: exit status $STATUS"
    cat "$LOG"
    exit 1
fi
grep -q "supervisor shut down" "$LOG" || { echo "FAIL shutdown: no shutdown message"; cat "$LOG"; exit 1; }
echo "ok   sigint-shutdown"

# Workers die with their supervisor: SIGKILL a fresh 2-worker fleet's
# supervisor and require every worker to be gone, or a zombie awaiting its
# new parent, within 5 s.
"$NISQC" serve --listen "$ADDR" --workers 2 --runtime-dir "$DIR/run2" 2>"$LOG" &
SUP_PID=$!
for _ in $(seq 1 200); do
    grep -q "supervising 2 workers" "$LOG" && break
    sleep 0.1
done
grep -q "supervising 2 workers" "$LOG" || { echo "FAIL orphans: fleet never came up"; cat "$LOG"; exit 1; }
WORKER_PIDS=$(request '{"op": "stats"}' | python3 -c '
import json, sys
print(" ".join(str(w["pid"]) for w in json.load(sys.stdin)["stats"]["workers"]))')
{ kill -9 $SUP_PID && wait $SUP_PID; } 2>/dev/null || true
for _ in $(seq 1 50); do
    LEFT=""
    for pid in $WORKER_PIDS; do
        state=$(awk '{print $3}' "/proc/$pid/stat" 2>/dev/null || true)
        if [[ -n "$state" && "$state" != "Z" ]]; then LEFT="$LEFT $pid"; fi
    done
    [[ -z "$LEFT" ]] && break
    sleep 0.1
done
if [[ -n "$LEFT" ]]; then
    kill -9 $LEFT
    echo "FAIL orphans: workers$LEFT outlived their SIGKILLed supervisor"
    exit 1
fi
echo "ok   workers exit with their SIGKILLed supervisor"
echo "worker crash smoke test passed"
