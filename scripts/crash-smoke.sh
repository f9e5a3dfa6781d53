#!/usr/bin/env bash
# Crash-recovery smoke test for the durable serving stack: boot rudolfd with
# a data directory and -fsync always, drive scoring load with cmd/loadgen,
# then durable churn with curl/jq (CHURN feedback batches, each followed by
# a rule republish), publish a windowed COUNT(location, 10m) >= 5 rule and
# score 3 of a 5-probe same-location burst. SIGKILL the daemon (no drain, no
# flush), restart it on the same data directory, and assert that the rule-set
# version and feedback count from /v1/stats survived, that the boot replayed
# WAL records, and that the burst's last 2 probes trip the windowed rule with
# window margin exactly 0 — proof the crash lost none of the observed
# transactions. Wired into `make crash-smoke` and the `make ci` chain.
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

BASE="http://$ADDR"
echo "crash-smoke: load phase"
"$BIN/loadgen" -url "$BASE" -duration "$DURATION" -concurrency 4 -batch 64

# The audit ring's sampled decisions are valid wire transactions: label them
# in turn as the churn's feedback, and replay the first as the burst probe.
AUDIT=$(curl -fsS "$BASE/v1/audit?n=8")
jq -e '[.entries | to_entries[]
        | {attrs: .value.attrs, score: .value.score,
           label: (["fraud", "legit", "unlabeled"][.key % 3])}]
       | select(length > 0) | {transactions: .}' <<<"$AUDIT" >"$TMP/feedback.json" || {
    echo "crash-smoke: the audit ring is empty after the load phase" >&2
    exit 1
}
ATTRS=$(jq '.entries[0].attrs' <<<"$AUDIT")

echo "crash-smoke: durable churn ($CHURN feedback batches + republishes)"
RULES=$(curl -fsS "$BASE/v1/rules" | jq '.rules')
for i in $(seq 1 "$CHURN"); do
    curl -fsS -H 'Content-Type: application/json' -X POST "$BASE/v1/feedback" \
        --data-binary @"$TMP/feedback.json" >/dev/null
    curl -fsS -H 'Content-Type: application/json' -X POST "$BASE/v1/rules" \
        -d "{\"rules\": $RULES, \"comment\": \"crash-smoke churn $i\"}" >/dev/null
done

# probes <first> <n>: an explain-mode score body of n same-location probes at
# consecutive minutes from <first>, all inside one 10-minute window.
probes() {
    jq -n --argjson a "$ATTRS" --argjson t "$1" --argjson n "$2" \
        '{transactions: [range(0; $n) | {attrs: ($a + {time: ($t + .)}), score: 500}], explain: true}'
}

# The velocity rule goes last, at index VEL; the load phase ran before any
# windowed rule existed, so the burst's count starts from zero.
VEL=$(jq 'length' <<<"$RULES")
curl -fsS -H 'Content-Type: application/json' -X POST "$BASE/v1/rules" \
    -d "{\"rules\": $(jq '. + ["COUNT(location, 10m) >= 5"]' <<<"$RULES"), \"comment\": \"crash-smoke velocity\"}" >/dev/null
PRE=$(curl -fsS -H 'Content-Type: application/json' -X POST "$BASE/v1/score" -d "$(probes 200 3)")
jq -e --argjson v "$VEL" '[.explanations[].matched | index($v) == null] | length == 3 and all' <<<"$PRE" >/dev/null || {
    echo "crash-smoke: velocity rule fired below its threshold before the kill: $PRE" >&2
    exit 1
}

STATS=$(curl -fsS "$BASE/v1/stats")
VERSION=$(jq .version <<<"$STATS")
FEEDBACK=$(jq .feedback <<<"$STATS")
echo "crash-smoke: recorded state: version=$VERSION feedback=$FEEDBACK, 3/5 burst probes observed"

echo "crash-smoke: SIGKILL to pid $DAEMON_PID (no drain, no flush)"
kill -KILL "$DAEMON_PID"
wait "$DAEMON_PID" 2>/dev/null || true
DAEMON_PID=""

echo "crash-smoke: restarting on the same data directory"
boot "$TMP/rudolfd-2.log"
BASE="http://$ADDR"
echo "crash-smoke: rudolfd is back on $ADDR"

echo "crash-smoke: asserting the recorded state survived the crash"
STATS=$(curl -fsS "$BASE/v1/stats")
jq -e --argjson v "$VERSION" --argjson f "$FEEDBACK" '.version == $v and .feedback == $f' <<<"$STATS" >/dev/null || {
    echo "crash-smoke: restored state $STATS, want version=$VERSION feedback=$FEEDBACK" >&2
    exit 1
}
# The boot must have replayed the log, not just started fresh.
curl -fsS "$BASE/metrics" | awk '$1 == "rudolf_wal_replayed_records_total" && $2 > 0 {found=1} END {exit !found}' || {
    echo "crash-smoke: rudolf_wal_replayed_records_total is not positive after the restart" >&2
    exit 1
}
# The burst's last 2 probes make 5: the rule fires on the last with window
# margin exactly 0, which holds only if all 3 pre-crash observations were
# recovered from the WAL.
POST=$(curl -fsS -H 'Content-Type: application/json' -X POST "$BASE/v1/score" -d "$(probes 203 2)")
jq -e --argjson v "$VEL" '
    (.explanations[1].matched | index($v) != null)
    and ([.explanations[1].rules[] | select(.rule == $v) | .checks[]
          | select(.kind == "window") | .margin] | length > 0 and all(. == 0))
' <<<"$POST" >/dev/null || {
    echo "crash-smoke: velocity rule $VEL did not fire with window margin 0 after the crash: $POST" >&2
    exit 1
}
echo "crash-smoke: restored version=$VERSION feedback=$FEEDBACK, WAL replayed, velocity rule fired with margin 0"

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
