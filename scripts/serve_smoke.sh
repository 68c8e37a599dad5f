#!/usr/bin/env bash
# Smoke test for `nisqc serve`: start the daemon, exercise the protocol's
# happy path and its rejection paths from a plain bash/python client, then
# check SIGINT drains cleanly with exit 0. Options after the binary go to
# `nisqc serve`, so `--workers 2 --runtime-dir DIR` runs the same checks
# against a supervised fleet.
#
# Usage: scripts/serve_smoke.sh [path/to/nisqc [serve options...]]
set -euo pipefail

NISQC="${1:-target/release/nisqc}"
if [[ $# -gt 0 ]]; then shift; fi
PORT="${SERVE_SMOKE_PORT:-7979}"
ADDR="127.0.0.1:${PORT}"
LOG="$(mktemp)"

"$NISQC" serve --listen "$ADDR" --timeout-ms 10000 "$@" 2>"$LOG" &
SERVER_PID=$!
trap 'kill -9 $SERVER_PID 2>/dev/null || true' EXIT

# Wait for the startup line of either mode. (Supervised workers log their
# own "listening on unix://" lines to the same file.)
STARTED="listening on tcp://|supervising"
for _ in $(seq 1 100); do
    grep -qE "$STARTED" "$LOG" && break
    kill -0 $SERVER_PID 2>/dev/null || { echo "server died early"; cat "$LOG"; exit 1; }
    sleep 0.1
done
grep -qE "$STARTED" "$LOG" || { echo "server never came up"; cat "$LOG"; exit 1; }
if grep -q "supervising" "$LOG"; then
    DRAINED="workers stopped, supervisor shut down"
else
    DRAINED="drained and shut down"
fi

# One request, one response line, via a short-lived TCP client.
request() {
    python3 - "$ADDR" "$1" <<'EOF'
import socket, sys
host, port = sys.argv[1].rsplit(":", 1)
with socket.create_connection((host, int(port)), timeout=60) as s:
    s.sendall(sys.argv[2].encode() + b"\n")
    f = s.makefile("r")
    print(f.readline().strip())
EOF
}

expect() { # expect <name> <response> <needle>
    if [[ "$2" != *"$3"* ]]; then
        echo "FAIL $1: expected '$3' in: $2"
        exit 1
    fi
    echo "ok   $1"
}

R=$(request '{"op": "ping", "id": "smoke"}')
expect ping "$R" '"status": "ok"'

R=$(request '{"op": "run", "id": "valid", "plan": {"benchmarks": "bv4", "mappers": "qiskit", "trials": 32, "sim_seed": 1}}')
expect valid-sweep "$R" '"status": "ok"'
expect valid-sweep-report "$R" '"report": '

R=$(request '{this is not json')
expect malformed "$R" '"code": "protocol"'

R=$(request '{"op": "run", "id": "bad", "plan": {"benchmarks": "bv99"}}')
expect invalid-plan "$R" '"code": "invalid-plan"'

R=$(request '{"op": "run", "id": "huge", "plan": {"benchmarks": "bv4", "topologies": "grid-1000x1000"}}')
expect budget "$R" '"code": "budget"'

# Oversized-but-admissible work under a tight timeout: the response must
# come back bounded, as a timeout error or a partial report.
R=$(request '{"op": "run", "id": "slow", "timeout_ms": 200, "plan": {"benchmarks": "all", "mappers": "table1", "days": "0..10", "trials": 65536, "sim_seed": 1}}')
case "$R" in
    *'"code": "timeout"'*|*'"status": "partial"'*) echo "ok   timeout-bounded" ;;
    *) echo "FAIL timeout-bounded: $R"; exit 1 ;;
esac

# The daemon and the supervisor report different stats keys.
R=$(request '{"op": "stats"}')
expect stats "$R" '"status": "ok"'

# SIGINT must drain and exit 0.
kill -INT $SERVER_PID
for _ in $(seq 1 100); do
    kill -0 $SERVER_PID 2>/dev/null || break
    sleep 0.1
done
if kill -0 $SERVER_PID 2>/dev/null; then
    echo "FAIL shutdown: server still running after SIGINT"
    exit 1
fi
STATUS=0
wait $SERVER_PID || STATUS=$?
trap - EXIT
if [[ $STATUS -ne 0 ]]; then
    echo "FAIL shutdown: exit status $STATUS"
    cat "$LOG"
    exit 1
fi
grep -q "$DRAINED" "$LOG" || { echo "FAIL shutdown: no drain message"; cat "$LOG"; exit 1; }
echo "ok   sigint-drain"
echo "serve smoke test passed"
