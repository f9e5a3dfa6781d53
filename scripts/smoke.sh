#!/usr/bin/env bash
# Smoke test for the online scoring daemon: boot rudolfd on a random port,
# drive a generated batch load through /v1/score with cmd/loadgen (which
# fails on any failed request), then assert with curl/jq, the way an
# operator would: explain-mode attribution and the feedback-driven rule
# health join, a windowed velocity rule tripping on a burst, the slow ring
# and /v1/debug/state, an alert's breach and resolve, and a clean SIGTERM
# drain. Wired into `make smoke` and the `make ci` chain.
set -euo pipefail

cd "$(dirname "$0")/.."

GO=${GO:-go}
DURATION=${SMOKE_DURATION:-2s}
TMP=$(mktemp -d)
BIN="$TMP/bin"
mkdir -p "$BIN"

cleanup() {
    if [[ -n "${DAEMON_PID:-}" ]] && kill -0 "$DAEMON_PID" 2>/dev/null; then
        kill -TERM "$DAEMON_PID" 2>/dev/null || true
        wait "$DAEMON_PID" 2>/dev/null || true
    fi
    rm -rf "$TMP"
}
trap cleanup EXIT

echo "smoke: building rudolfd and loadgen"
$GO build -o "$BIN/rudolfd" ./cmd/rudolfd
$GO build -o "$BIN/loadgen" ./cmd/loadgen

echo "smoke: booting rudolfd on a random port"
# -alert-interval 100ms: the fast ticker the alert phase at the bottom
# relies on. No -alerts file: the daemon boots the compiled-in default SLO
# rules, and the alert phase swaps in its own aggressive rule through
# POST /v1/alerts.
"$BIN/rudolfd" -addr 127.0.0.1:0 -addr-file "$TMP/addr" -size 2000 -seed 1 \
    -alert-interval 100ms \
    >"$TMP/rudolfd.log" 2>&1 &
DAEMON_PID=$!

# Wait for the daemon to write its bound address.
for _ in $(seq 1 100); do
    [[ -s "$TMP/addr" ]] && break
    if ! kill -0 "$DAEMON_PID" 2>/dev/null; then
        echo "smoke: rudolfd died during startup:" >&2
        cat "$TMP/rudolfd.log" >&2
        exit 1
    fi
    sleep 0.1
done
if [[ ! -s "$TMP/addr" ]]; then
    echo "smoke: rudolfd never published its address" >&2
    cat "$TMP/rudolfd.log" >&2
    exit 1
fi
ADDR=$(head -n1 "$TMP/addr" | tr -d '[:space:]')
echo "smoke: rudolfd is up on $ADDR"

# Load phase: exits non-zero if any scoring request failed.
"$BIN/loadgen" -url "http://$ADDR" -duration "$DURATION" -concurrency 4 -batch 64

# --- Decision provenance + rule health, exercised from the outside -------
# Against a rule set the script controls: republish the served rules plus a
# catch-all score-threshold rule, replay a transaction from the audit ring
# through explain-mode scoring, and assert the attribution and the
# feedback-driven TP/FP join.
echo "smoke: explain + rule-health assertions (curl/jq)"
BASE="http://$ADDR"

RULES_JSON=$(curl -fsS "$BASE/v1/rules")
N=$(echo "$RULES_JSON" | jq '.rules | length')
NEW_RULES=$(echo "$RULES_JSON" | jq '.rules + ["score >= 1"]')
curl -fsS -H 'Content-Type: application/json' -X POST "$BASE/v1/rules" \
    -d "{\"rules\": $NEW_RULES, \"comment\": \"smoke catch-all\"}" >/dev/null
VERSION=$(curl -fsS "$BASE/v1/rules" | jq .version)

# The audit ring survives rule swaps and sampled the load phase; its
# rendered attrs are a valid wire transaction.
ATTRS=$(curl -fsS "$BASE/v1/audit?n=1" | jq -e '.entries[0].attrs') || {
    echo "smoke: the audit ring is empty after the load phase" >&2
    exit 1
}
TX="{\"attrs\": $ATTRS, \"score\": 500}"

# Default explain mode: a breakdown per *fired* rule, margins consistent.
EXPLAIN=$(curl -fsS -H 'Content-Type: application/json' -X POST "$BASE/v1/score" \
    -d "{\"transactions\": [$TX], \"explain\": true}")
echo "$EXPLAIN" | jq -e --argjson n "$N" --argjson v "$VERSION" '
    .version == $v
    and (.explanations | length == 1)
    and (.explanations[0] | .flagged == ((.matched | length) > 0))
    and (.explanations[0].matched | index($n) != null)
    and ([.explanations[0].rules[].rule] == .explanations[0].matched)
    and ([.explanations[0].rules[].matched] | all)
    and ([.explanations[0].rules[].checks[] | .pass == (.margin >= 0)] | all)
' >/dev/null || {
    echo "smoke: explain-mode attribution assertions failed: $EXPLAIN" >&2
    exit 1
}
# explain_all: the full index-aligned rule table, near-misses included.
EXPLAIN_ALL=$(curl -fsS -H 'Content-Type: application/json' -X POST "$BASE/v1/score" \
    -d "{\"transactions\": [$TX], \"explain_all\": true}")
echo "$EXPLAIN_ALL" | jq -e --argjson n "$N" --argjson v "$VERSION" '
    .version == $v
    and (.explanations | length == 1)
    and (.explanations[0].rules | length == $n + 1)
    and ([.explanations[0].rules[].rule] == [range(0; $n + 1)])
    and ([.explanations[0].rules[].checks[] | .pass == (.margin >= 0)] | all)
' >/dev/null || {
    echo "smoke: explain_all attribution assertions failed: $EXPLAIN_ALL" >&2
    exit 1
}
# Fire accounting is first-match: the fire is credited to the first rule the
# transaction matches, which may be a base rule rather than the catch-all.
FIRST=$(echo "$EXPLAIN" | jq '.explanations[0].matched[0]')

# The catch-all rule captures the transaction, so fraud feedback must move
# its TP and legit feedback its FP in /v1/rules/health — and the health
# snapshot must be ETag-consistent with the published version.
curl -fsS -H 'Content-Type: application/json' -X POST "$BASE/v1/feedback" \
    -d "{\"transactions\": [{\"attrs\": $ATTRS, \"score\": 500, \"label\": \"fraud\"}]}" >/dev/null
curl -fsS -H 'Content-Type: application/json' -X POST "$BASE/v1/feedback" \
    -d "{\"transactions\": [{\"attrs\": $ATTRS, \"score\": 500, \"label\": \"legit\"}]}" >/dev/null
HEALTH=$(curl -fsS "$BASE/v1/rules/health")
echo "$HEALTH" | jq -e --argjson n "$N" --argjson v "$VERSION" --argjson first "$FIRST" '
    .version == $v
    and (.rules | length == $n + 1)
    and (.rules[$first].fires >= 1)
    and (.rules[$n].tp >= 1)
    and (.rules[$n].fp >= 1)
' >/dev/null || {
    echo "smoke: /v1/rules/health TP/FP assertions failed: $HEALTH" >&2
    exit 1
}
ETAG=$(curl -fsS -o /dev/null -D - "$BASE/v1/rules/health" | tr -d '\r' | awk 'tolower($1)=="etag:"{print $2}')
CODE=$(curl -s -o /dev/null -w '%{http_code}' -H "If-None-Match: $ETAG" "$BASE/v1/rules/health")
if [[ "$CODE" != "304" ]]; then
    echo "smoke: /v1/rules/health If-None-Match $ETAG answered $CODE, want 304" >&2
    exit 1
fi
echo "smoke: explain + rule-health assertions ok (version $VERSION, fire on rule $FIRST, catch-all rule $N: tp/fp moved)"

# --- Stateful velocity rules: a same-venue burst trips a windowed COUNT --
# Publish a single windowed rule so flagged ⟺ the velocity rule fired, then
# replay the audit transaction five times in a tight burst: the fifth event
# at the same location within 10 minutes must fire the rule, and its explain
# check must carry the window kind with a non-negative margin. The first
# probe must not fire — at most two earlier explain observations share its
# location, so its count is at most 3 < 5. (Probes 2-4 are left unasserted:
# carryover observations can legitimately push them over the threshold.)
echo "smoke: velocity-rule assertions (curl/jq)"
curl -fsS -H 'Content-Type: application/json' -X POST "$BASE/v1/rules" \
    -d '{"rules": ["COUNT(location, 10m) >= 5"], "comment": "smoke velocity"}' >/dev/null
BURST=$(jq -n --argjson a "$ATTRS" \
    '{transactions: [range(0;5) | {attrs: ($a + {time: (1400 + .)}), score: 500}], explain: true}')
VEL=$(curl -fsS -H 'Content-Type: application/json' -X POST "$BASE/v1/score" -d "$BURST")
echo "$VEL" | jq -e '
    (.flagged[0] == false)
    and (.flagged[4] == true)
    and ([.explanations[4].rules[0].checks[]
          | select(.kind == "window") | .pass and .margin >= 0] | any)
' >/dev/null || {
    echo "smoke: velocity burst assertions failed: $VEL" >&2
    exit 1
}
echo "smoke: velocity-rule assertions ok (burst fired the windowed rule)"

# The window store's occupancy must be visible on /metrics after the burst,
# with both eviction-cause series present.
METRICS=$(curl -fsS "$BASE/metrics")
echo "$METRICS" | awk '$1 == "rudolf_window_entries" && $2 > 0 {found=1} END {exit !found}' || {
    echo "smoke: rudolf_window_entries not positive after the velocity burst" >&2
    exit 1
}
for series in 'rudolf_window_evictions_total{cause="expired"}' 'rudolf_window_evictions_total{cause="lru"}' 'rudolf_stage_duration_seconds_count{stage="eval"}'; do
    grep -qF "$series" <<<"$METRICS" || {
        echo "smoke: /metrics missing series $series" >&2
        exit 1
    }
done
echo "smoke: window + stage metrics ok"

# --- Hot-path observability: slow ring + consolidated debug state --------
# A deliberately heavy request (big explain_all batch, far heavier than
# anything above) must exceed the adaptive tail-sampling threshold and keep
# its full span tree in GET /v1/debug/slow, stage breakdown included,
# correlated by the X-Request-Id the response carried.
echo "smoke: debug-endpoint assertions (curl/jq)"
jq -n --argjson a "$ATTRS" \
    '{transactions: [range(0;2048) | {attrs: ($a + {time: ((3000 + .) % 1440)}), score: 500}], explain_all: true}' \
    >"$TMP/bigbatch.json"
# A promoted request's uncovered time is occasionally a GC pause outside
# the stage taxonomy (often why it was slow enough to promote); the
# structural assertions are unconditional, only the 90% coverage bound
# earns a fresh probe.
COVERED=""
for attempt in 1 2 3 4 5; do
    SLOW_ID=$(curl -fsS -o /dev/null -D - -H 'Content-Type: application/json' \
        -X POST "$BASE/v1/score" --data-binary @"$TMP/bigbatch.json" | tr -d '\r' | awk 'tolower($1)=="x-request-id:"{print $2}')
    [[ -n "$SLOW_ID" ]] || { echo "smoke: slow probe returned no X-Request-Id" >&2; exit 1; }
    SLOW=$(curl -fsS "$BASE/v1/debug/slow")
    echo "$SLOW" | jq -e --arg id "$SLOW_ID" '
        (.count > 0)
        and ((.entries | length) == .count)
        and ([.entries[] | select(.request_id == $id)] | length == 1)
        and (.entries[] | select(.request_id == $id) |
             (.name == "request.score")
             and (.stages_ns | length > 0)
             and (.stage_total_ns <= .dur_ns)
             and (.spans | length > 1))
    ' >/dev/null || {
        echo "smoke: /v1/debug/slow assertions failed for $SLOW_ID: $SLOW" >&2
        exit 1
    }
    if echo "$SLOW" | jq -e --arg id "$SLOW_ID" \
        '.entries[] | select(.request_id == $id) | .stage_total_ns >= .dur_ns * 0.9' >/dev/null; then
        COVERED=1
        break
    fi
    echo "smoke: slow probe $SLOW_ID stage coverage under 90% (attempt $attempt/5), retrying"
done
[[ -n "$COVERED" ]] || {
    echo "smoke: no slow probe reached 90% stage coverage in 5 attempts" >&2
    exit 1
}
# The Chrome-trace form must parse and carry events.
curl -fsS "$BASE/v1/debug/slow?format=chrome" | jq -e '.traceEvents | length > 0' >/dev/null || {
    echo "smoke: /v1/debug/slow?format=chrome is malformed" >&2
    exit 1
}
# /v1/debug/state consolidates every subsystem into one document.
STATE=$(curl -fsS "$BASE/v1/debug/state")
echo "$STATE" | jq -e '
    (.uptime_seconds > 0)
    and (.version >= 1)
    and (.rules >= 1)
    and (.workers >= 1)
    and (.scored_tx > 0)
    and (.trace.capacity > 0) and (.trace.held > 0)
    and (.slow.capacity > 0) and (.slow.promoted > 0) and (.slow.len > 0)
    and (.window.entries > 0)
    and (.runtime.goroutines > 0) and (.runtime.heap_bytes > 0)
' >/dev/null || {
    echo "smoke: /v1/debug/state assertions failed: $STATE" >&2
    exit 1
}
echo "smoke: debug-endpoint assertions ok (slow trace $SLOW_ID retained with stage breakdown)"

# --- Alerting: induce a breach, watch it fire, starve it, watch it resolve
# Replace the default SLO rules with one aggressive traffic rule: any
# scoring between two evaluator ticks breaches it. A background curl loop
# keeps transactions flowing, so the 100ms ticker must take the rule to
# firing; killing the loop starves the rate and the next quiet tick must
# resolve it. State is read without ?refresh=1 so it is the periodic
# evaluator being asserted, not an on-demand pass.
echo "smoke: alert breach/resolve assertions (curl/jq)"
ACK=$(curl -fsS -H 'Content-Type: application/json' -X POST "$BASE/v1/alerts" \
    -d '{"rules": ["alert smoke_traffic severity=page: rate(rudolf_score_tx_total) > 0"]}')
echo "$ACK" | jq -e '.config_version == 2 and .rules == 1' >/dev/null || {
    echo "smoke: POST /v1/alerts ack malformed: $ACK" >&2
    exit 1
}

touch "$TMP/alertload"
(
    while [[ -f "$TMP/alertload" ]]; do
        curl -fsS -H 'Content-Type: application/json' -X POST "$BASE/v1/score" \
            -d "{\"transactions\": [$TX]}" >/dev/null 2>&1 || true
        sleep 0.02
    done
) &
LOAD_PID=$!

# Two 100ms evaluation intervals is the contract; poll a little past that
# to absorb scheduler noise, but record how many ticks it actually took.
FIRED=""
for i in $(seq 1 40); do
    STATE=$(curl -fsS "$BASE/v1/alerts")
    if echo "$STATE" | jq -e '.rules[] | select(.name == "smoke_traffic") | .state == "firing"' >/dev/null; then
        FIRED=1
        break
    fi
    sleep 0.05
done
rm -f "$TMP/alertload"
if [[ -z "$FIRED" ]]; then
    wait "$LOAD_PID" 2>/dev/null || true
    echo "smoke: smoke_traffic never fired under load: $STATE" >&2
    exit 1
fi
echo "smoke: smoke_traffic fired after ~$((i * 50))ms of load"

# While firing, the alert is visible on every surface.
METRICS=$(curl -fsS "$BASE/metrics")
grep -qF 'ALERTS{name="smoke_traffic",severity="page",state="firing"} 1' <<<"$METRICS" || {
    echo "smoke: /metrics missing the firing ALERTS series" >&2
    exit 1
}
curl -fsS "$BASE/v1/status" | jq -e '.alerts_firing >= 1' >/dev/null || {
    echo "smoke: /v1/status alerts_firing did not move" >&2
    exit 1
}
curl -fsS "$BASE/v1/debug/state" | jq -e \
    '.alerts.rules == 1 and .alerts.firing >= 1 and .alerts.ticker_running' >/dev/null || {
    echo "smoke: /v1/debug/state alerts block malformed" >&2
    exit 1
}

# Load stopped: the next quiet tick sees a zero rate and resolves.
wait "$LOAD_PID" 2>/dev/null || true
RESOLVED=""
for _ in $(seq 1 40); do
    STATE=$(curl -fsS "$BASE/v1/alerts")
    if echo "$STATE" | jq -e '.rules[] | select(.name == "smoke_traffic") | .state == "inactive"' >/dev/null; then
        RESOLVED=1
        break
    fi
    sleep 0.05
done
[[ -n "$RESOLVED" ]] || {
    echo "smoke: smoke_traffic never resolved after load stopped: $STATE" >&2
    exit 1
}
# The firing→resolved pair is in the retained history, newest first.
echo "$STATE" | jq -e '
    ([.recent[] | select(.name == "smoke_traffic" and .state == "resolved")] | length >= 1)
    and ([.recent[] | select(.name == "smoke_traffic" and .state == "firing")] | length >= 1)
' >/dev/null || {
    echo "smoke: alert history lacks the firing/resolved pair: $STATE" >&2
    exit 1
}
METRICS=$(curl -fsS "$BASE/metrics")
grep -qF 'ALERTS{name="smoke_traffic",severity="page",state="firing"} 0' <<<"$METRICS" || {
    echo "smoke: ALERTS series did not drop back to 0 after resolve" >&2
    exit 1
}
echo "smoke: alert breach/resolve assertions ok (fired under load, resolved when starved)"

# Graceful drain: SIGTERM must exit cleanly.
kill -TERM "$DAEMON_PID"
wait "$DAEMON_PID"
DAEMON_PID=""
echo "smoke: rudolfd drained cleanly"
echo "smoke: ok"
