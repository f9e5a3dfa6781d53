#!/usr/bin/env bash
# Trace demo: boot rudolfd on a random port, drive load through it with
# cmd/loadgen, label 32 audited decisions fraud/legit/unlabeled in turn as
# feedback and run one POST /v1/refine over them (curl/jq), then dump
# GET /v1/trace to a Chrome trace_event JSON file and validate it with
# scripts/checktrace (well-formed, span tree sound, at least one refine.round
# span with expert-query descendants). The dumped file loads directly in
# ui.perfetto.dev. Wired into `make trace-demo` and the `make ci` chain.
set -euo pipefail

cd "$(dirname "$0")/.."

GO=${GO:-go}
DURATION=${TRACE_DEMO_DURATION:-1s}
TMP=$(mktemp -d)
BIN="$TMP/bin"
OUT=${TRACE_OUT:-$TMP/trace-demo.json}
mkdir -p "$BIN"

cleanup() {
    if [[ -n "${DAEMON_PID:-}" ]] && kill -0 "$DAEMON_PID" 2>/dev/null; then
        kill -TERM "$DAEMON_PID" 2>/dev/null || true
        wait "$DAEMON_PID" 2>/dev/null || true
    fi
    rm -rf "$TMP"
}
trap cleanup EXIT

echo "trace-demo: building rudolfd, loadgen and checktrace"
$GO build -o "$BIN/rudolfd" ./cmd/rudolfd
$GO build -o "$BIN/loadgen" ./cmd/loadgen
$GO build -o "$BIN/checktrace" ./scripts/checktrace

echo "trace-demo: booting rudolfd on a random port"
"$BIN/rudolfd" -addr 127.0.0.1:0 -addr-file "$TMP/addr" -size 2000 -seed 1 \
    -log-format json >"$TMP/rudolfd.log" 2>&1 &
DAEMON_PID=$!

for _ in $(seq 1 100); do
    [[ -s "$TMP/addr" ]] && break
    if ! kill -0 "$DAEMON_PID" 2>/dev/null; then
        echo "trace-demo: rudolfd died during startup:" >&2
        cat "$TMP/rudolfd.log" >&2
        exit 1
    fi
    sleep 0.1
done
if [[ ! -s "$TMP/addr" ]]; then
    echo "trace-demo: rudolfd never published its address" >&2
    cat "$TMP/rudolfd.log" >&2
    exit 1
fi
ADDR=$(head -n1 "$TMP/addr" | tr -d '[:space:]')
echo "trace-demo: rudolfd is up on $ADDR"

BASE="http://$ADDR"
"$BIN/loadgen" -url "$BASE" -duration "$DURATION" -concurrency 4 -batch 32

# Feedback + /refine: the refinement whose spans the trace must contain. The
# audit ring's sampled decisions are valid wire transactions; labelling them
# in turn gives the refinement frauds to chase and legitimates to protect.
echo "trace-demo: labelling audited decisions as feedback and refining"
curl -fsS "$BASE/v1/audit?n=32" | jq -e '
    [.entries | to_entries[]
     | {attrs: .value.attrs, score: .value.score,
        label: (["fraud", "legit", "unlabeled"][.key % 3])}]
    | select(length > 0) | {transactions: .}' >"$TMP/feedback.json" || {
    echo "trace-demo: the audit ring is empty after the load phase" >&2
    exit 1
}
curl -fsS -H 'Content-Type: application/json' -X POST "$BASE/v1/feedback" \
    --data-binary @"$TMP/feedback.json" >/dev/null
curl -fsS -H 'Content-Type: application/json' -X POST "$BASE/v1/refine" -d '{}' |
    jq -c '{old_version, version, modifications}'

# Dump GET /v1/trace to $OUT and validate it in one go.
echo "trace-demo: dumping and validating GET /v1/trace"
"$BIN/checktrace" -o "$OUT" "$BASE/v1/trace"
echo "trace-demo: chrome trace written to $OUT (load it in ui.perfetto.dev)"

kill -TERM "$DAEMON_PID"
wait "$DAEMON_PID"
DAEMON_PID=""
echo "trace-demo: ok"
