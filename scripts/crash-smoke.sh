#!/usr/bin/env bash
# Crash-recovery smoke test for the durable serving stack: boot rudolfd with
# a data directory and -fsync always, drive scoring load plus durable churn
# (feedback batches + rule republishes) with cmd/loadgen, kill the daemon
# with SIGKILL mid-flight, restart it on the same data directory, and assert
# with `loadgen -resume` that the rule-set version and feedback count
# survived the crash, that the boot replayed WAL records, and that errors
# arrive in the uniform envelope.
# -velocity additionally publishes a windowed COUNT rule and scores part of
# a same-key burst before the kill; the resume run finishes the burst and
# requires the rule to fire with window margin exactly 0 — proof the crash
# lost none of the observed transactions. Wired into `make crash-smoke` and
# the `make ci` chain.
set -euo pipefail

cd "$(dirname "$0")/.."

GO=${GO:-go}
DURATION=${CRASH_SMOKE_DURATION:-2s}
CHURN=${CRASH_SMOKE_CHURN:-5}
TMP=$(mktemp -d)
BIN="$TMP/bin"
DATA="$TMP/data"
mkdir -p "$BIN"

cleanup() {
    if [[ -n "${DAEMON_PID:-}" ]] && kill -0 "$DAEMON_PID" 2>/dev/null; then
        kill -KILL "$DAEMON_PID" 2>/dev/null || true
        wait "$DAEMON_PID" 2>/dev/null || true
    fi
    rm -rf "$TMP"
}
trap cleanup EXIT

# boot <logfile>: start rudolfd against $DATA and wait for its address.
boot() {
    local log=$1
    : >"$TMP/addr"
    "$BIN/rudolfd" -addr 127.0.0.1:0 -addr-file "$TMP/addr" -size 2000 -seed 1 \
        -data-dir "$DATA" -fsync always -snapshot-interval -1s \
        >"$log" 2>&1 &
    DAEMON_PID=$!
    for _ in $(seq 1 100); do
        [[ -s "$TMP/addr" ]] && break
        if ! kill -0 "$DAEMON_PID" 2>/dev/null; then
            echo "crash-smoke: rudolfd died during startup:" >&2
            cat "$log" >&2
            exit 1
        fi
        sleep 0.1
    done
    if [[ ! -s "$TMP/addr" ]]; then
        echo "crash-smoke: rudolfd never published its address" >&2
        cat "$log" >&2
        exit 1
    fi
    ADDR=$(head -n1 "$TMP/addr" | tr -d '[:space:]')
}

echo "crash-smoke: building rudolfd and loadgen"
$GO build -o "$BIN/rudolfd" ./cmd/rudolfd
$GO build -o "$BIN/loadgen" ./cmd/loadgen

echo "crash-smoke: booting rudolfd with -data-dir (fsync always)"
boot "$TMP/rudolfd-1.log"
echo "crash-smoke: rudolfd is up on $ADDR (pid $DAEMON_PID)"

echo "crash-smoke: load + durable churn ($CHURN feedback batches + republishes)"
"$BIN/loadgen" -url "http://$ADDR" -duration "$DURATION" -concurrency 4 -batch 64 \
    -churn "$CHURN" -state-file "$TMP/state" -velocity
echo "crash-smoke: recorded state: $(cat "$TMP/state")"

echo "crash-smoke: SIGKILL to pid $DAEMON_PID (no drain, no flush)"
kill -KILL "$DAEMON_PID"
wait "$DAEMON_PID" 2>/dev/null || true
DAEMON_PID=""

echo "crash-smoke: restarting on the same data directory"
boot "$TMP/rudolfd-2.log"
echo "crash-smoke: rudolfd is back on $ADDR"

echo "crash-smoke: asserting the recorded state survived the crash"
"$BIN/loadgen" -url "http://$ADDR" -resume -state-file "$TMP/state" -velocity

# Graceful drain of the recovered daemon: SIGTERM must exit cleanly and
# flush its state.
kill -TERM "$DAEMON_PID"
wait "$DAEMON_PID"
DAEMON_PID=""
grep -q "durable state flushed" "$TMP/rudolfd-2.log" || {
    echo "crash-smoke: drain did not flush durable state" >&2
    cat "$TMP/rudolfd-2.log" >&2
    exit 1
}
echo "crash-smoke: recovered daemon drained cleanly"
echo "crash-smoke: ok"
