// Command loadgen is the traffic generator for cmd/rudolfd: it fetches the
// daemon's schema, synthesizes random transaction batches, hammers /score
// from concurrent workers for a fixed duration, and then reports throughput
// plus the p50/p99 scoring latency scraped back off /metrics — the same
// numbers a production dashboard would watch. Every scoring response's
// request_id is decoded, and the slowest observed request is reported with
// its id so it can be looked up in the daemon's GET /v1/trace output.
//
// Usage:
//
//	loadgen -url http://127.0.0.1:8080 [-duration 10s] [-concurrency 8]
//	        [-batch 64] [-seed 1] [-smoke] [-churn N] [-state-file f]
//	        [-resume] [-expect-version N] [-expect-feedback N] [-velocity]
//	        [-follower-of http://leader:8080]
//
// With -smoke it additionally exercises the control plane after the load
// phase — asserts decision provenance (explain-mode /v1/score responses
// satisfy the margin invariant, GET /v1/rules/health joins fraud feedback
// into per-rule TP counts, GET /v1/audit retained sampled decisions), swaps
// the rules (POST /v1/rules), pushes a labeled feedback batch, runs a
// /v1/refine, asserts that /metrics moved (transactions scored, version
// bumped, refinement rounds observed) and that GET /v1/trace returns
// well-formed trace JSON, and — when the schema has a time attribute —
// publishes a windowed velocity rule and asserts a same-key burst trips it
// exactly at its COUNT threshold with a window-kind explain check. Exits
// non-zero on any failure, which is what `make smoke` runs in CI.
//
// -churn N drives the durable write path: N labeled feedback batches
// interleaved with N rule republishes, after which the published rule-set
// version and feedback total are printed (and written to -state-file, when
// set) so a later run can assert they survived a restart.
//
// -resume is that later run: it skips the load phase and instead asserts
// that the daemon's current version and feedback count equal
// -expect-version / -expect-feedback (or the values recorded in
// -state-file), that the boot actually replayed WAL records
// (rudolf_wal_replayed_records_total > 0), and that errors arrive in the
// uniform envelope — the assertion pass behind `make crash-smoke`.
//
// -follower-of asserts the replication contract before the load phase runs:
// the target must report role=follower on GET /v1/status and become ready,
// reject a mutating request with the stable "read_only" envelope plus a
// Location header into the leader, converge GET /v1/rules to the leader's
// exact ETag, and score read-only at that version. The load phase then
// hammers the follower as usual — the assertion pass behind
// `make cluster-smoke`. Incompatible with -smoke and -churn, which mutate.
//
// -velocity extends the churn/resume pair with stateful-rule convergence:
// the churn run publishes a windowed COUNT rule and scores part of a
// same-key burst (below the threshold), and the resume run finishes the
// burst — the rule must fire with window margin exactly 0, which only
// happens if the kill -9 lost none of the observed transactions.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	goruntime "runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ontology"
	"repro/internal/relation"
	"repro/internal/rules"
	"repro/internal/telemetry"
)

func main() {
	var (
		baseURL     = flag.String("url", "http://127.0.0.1:8080", "rudolfd base URL")
		duration    = flag.Duration("duration", 10*time.Second, "load duration")
		concurrency = flag.Int("concurrency", 8, "concurrent workers")
		batch       = flag.Int("batch", 64, "transactions per /score request")
		seed        = flag.Int64("seed", 1, "traffic generation seed")
		smoke       = flag.Bool("smoke", false, "after the load phase, swap rules and assert /metrics moved")
		churn       = flag.Int("churn", 0, "after the load phase, push N feedback batches interleaved with N republishes")
		stateFile   = flag.String("state-file", "", "write (churn) / read (resume) the version+feedback state here")
		resume      = flag.Bool("resume", false, "skip the load phase; assert the daemon restored the recorded state")
		expectVer   = flag.Int("expect-version", -1, "with -resume: expected rule-set version (-1: take it from -state-file)")
		expectFb    = flag.Int("expect-feedback", -1, "with -resume: expected feedback count (-1: take it from -state-file)")
		velocity    = flag.Bool("velocity", false, "with -churn/-resume: assert windowed-rule aggregate state survives the restart")
		followerOf  = flag.String("follower-of", "", "assert -url is a ready read-only replication follower of the leader at this base URL before the load phase")
	)
	flag.Parse()
	url := strings.TrimRight(*baseURL, "/")

	if *resume {
		if err := runResume(url, *expectVer, *expectFb, *stateFile, *velocity); err != nil {
			fatal(fmt.Errorf("resume: %w", err))
		}
		fmt.Println("loadgen: resume ok")
		return
	}

	schema, err := fetchSchema(url)
	if err != nil {
		fatal(err)
	}
	startRules, startVersion, err := fetchRules(url)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("loadgen: target %s, schema arity %d, rules version %d (%d rules)\n",
		url, schema.Arity(), startVersion, len(startRules))

	if *followerOf != "" {
		if *smoke || *churn > 0 {
			fatal(fmt.Errorf("-follower-of is incompatible with -smoke and -churn: followers reject writes"))
		}
		if err := runFollowerCheck(url, *followerOf, schema); err != nil {
			fatal(fmt.Errorf("follower check: %w", err))
		}
		fmt.Printf("loadgen: follower contract verified against leader %s\n", *followerOf)
	}

	// Pre-generate distinct request bodies so the hot loop only does I/O.
	rng := rand.New(rand.NewSource(*seed))
	bodies := make([][]byte, 64)
	for i := range bodies {
		bodies[i] = scoreBody(rng, schema, *batch)
	}

	var (
		txScored atomic.Int64
		requests atomic.Int64
		errs     atomic.Int64
	)
	deadline := time.Now().Add(*duration)
	var wg sync.WaitGroup
	worst := make([]slowest, *concurrency)
	// Per-worker latency logs, merged after the load phase into the
	// client-side percentiles cross-checked against the server's histograms.
	lat := make([][]time.Duration, *concurrency)
	start := time.Now()
	for w := 0; w < *concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := &http.Client{Timeout: 30 * time.Second}
			for i := w; time.Now().Before(deadline); i++ {
				body := bodies[i%len(bodies)]
				t0 := time.Now()
				resp, err := client.Post(url+"/v1/score", "application/json", bytes.NewReader(body))
				if err != nil {
					errs.Add(1)
					continue
				}
				raw, readErr := io.ReadAll(resp.Body)
				resp.Body.Close()
				took := time.Since(t0)
				if readErr != nil || resp.StatusCode != http.StatusOK {
					errs.Add(1)
					continue
				}
				requests.Add(1)
				txScored.Add(int64(*batch))
				lat[w] = append(lat[w], took)
				if took > worst[w].latency {
					var out struct {
						RequestID string `json:"request_id"`
					}
					json.Unmarshal(raw, &out) //nolint:errcheck // best-effort id decode
					worst[w] = slowest{latency: took, requestID: out.RequestID}
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	client := summarizeLatencies(lat)

	// Merge each worker's slowest observation into the overall worst request.
	var worstReq slowest
	for _, s := range worst {
		if s.latency > worstReq.latency {
			worstReq = s
		}
	}

	page, err := fetchMetrics(url)
	if err != nil {
		fatal(err)
	}
	rate := float64(txScored.Load()) / elapsed.Seconds()
	fmt.Printf("loadgen: %d requests, %d tx in %v -> %.0f tx/s (%d errors)\n",
		requests.Load(), txScored.Load(), elapsed.Round(time.Millisecond), rate, errs.Load())
	if client.requests > 0 {
		fmt.Printf("loadgen: client-side latency: p50 %s, p99 %s, p99.9 %s over %d requests\n",
			client.p50.Round(time.Microsecond), client.p99.Round(time.Microsecond),
			client.p999.Round(time.Microsecond), client.requests)
	}
	if h, err := telemetry.ScrapeHistogram(strings.NewReader(page), "rudolf_score_latency_seconds"); err == nil {
		fmt.Printf("loadgen: per-request latency from /metrics: p50 %s, p99 %s (%d requests observed)\n",
			fmtSeconds(telemetry.Quantile(h, 0.5)), fmtSeconds(telemetry.Quantile(h, 0.99)), h.Total)
	}
	printStageTable(page)
	if h, err := telemetry.ScrapeHistogram(strings.NewReader(page), "rudolf_score_batch_size"); err == nil && h.Total > 0 {
		fmt.Printf("loadgen: batch size from /metrics: mean %.1f tx/request\n", h.Sum/float64(h.Total))
	}
	if worstReq.requestID != "" {
		fmt.Printf("loadgen: slowest request %s took %s (look it up under GET /v1/trace)\n",
			worstReq.requestID, worstReq.latency.Round(time.Microsecond))
	}

	if *churn > 0 {
		if err := runChurn(url, rng, schema, startRules, *churn, *stateFile, *velocity); err != nil {
			fatal(fmt.Errorf("churn: %w", err))
		}
	}

	if !*smoke {
		return
	}
	if err := runSmoke(url, page, rng, schema, startRules, startVersion, txScored.Load(), errs.Load(), worstReq, client); err != nil {
		fatal(fmt.Errorf("smoke: %w", err))
	}
	fmt.Println("loadgen: smoke ok")
}

// clientLatencies summarizes the client-observed request latencies of the
// load phase.
type clientLatencies struct {
	requests       int
	total          time.Duration
	p50, p99, p999 time.Duration
}

// summarizeLatencies merges the per-worker latency logs and computes the
// client-side percentiles.
func summarizeLatencies(lat [][]time.Duration) clientLatencies {
	var all []time.Duration
	for _, l := range lat {
		all = append(all, l...)
	}
	if len(all) == 0 {
		return clientLatencies{}
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	var total time.Duration
	for _, d := range all {
		total += d
	}
	q := func(p float64) time.Duration {
		i := int(p * float64(len(all)-1))
		return all[i]
	}
	return clientLatencies{
		requests: len(all), total: total,
		p50: q(0.50), p99: q(0.99), p999: q(0.999),
	}
}

// loadgenStages mirrors the server's stage taxonomy
// (rudolf_stage_duration_seconds{stage=...}).
var loadgenStages = []string{"decode", "acquire", "wal_append", "window", "eval", "encode", "write"}

// stageStat is one stage's scraped sum/count.
type stageStat struct {
	sum   float64
	count float64
}

// scrapeStages reads the per-stage histogram sums and counts off a /metrics
// page, keyed by stage label.
func scrapeStages(page string) map[string]stageStat {
	out := make(map[string]stageStat, len(loadgenStages))
	for _, st := range loadgenStages {
		sum, okS := telemetry.ScrapeValue(page, fmt.Sprintf(`rudolf_stage_duration_seconds_sum{stage=%q}`, st))
		count, okC := telemetry.ScrapeValue(page, fmt.Sprintf(`rudolf_stage_duration_seconds_count{stage=%q}`, st))
		if okS && okC {
			out[st] = stageStat{sum: sum, count: count}
		}
	}
	return out
}

// printStageTable reports where server-side request time went, by stage.
func printStageTable(page string) {
	stages := scrapeStages(page)
	var parts []string
	var total float64
	for _, st := range loadgenStages {
		s, ok := stages[st]
		if !ok || s.count == 0 {
			continue
		}
		total += s.sum
		parts = append(parts, fmt.Sprintf("%s %s", st, fmtSeconds(s.sum/s.count)))
	}
	if len(parts) > 0 {
		fmt.Printf("loadgen: server stage means from /metrics: %s (total %s across stages)\n",
			strings.Join(parts, ", "), fmtSeconds(total))
	}
}

// slowest tracks the worst-latency scoring request one worker observed,
// keyed by the request id the daemon echoed back — the handle an operator
// uses to find the matching span in GET /v1/trace.
type slowest struct {
	latency   time.Duration
	requestID string
}

// runSmoke is the control-plane assertion pass behind `make smoke`: the load
// phase must have scored traffic, a rules swap must bump the published
// version, a feedback-driven /refine must register on the new refinement
// metrics series, GET /v1/trace must return well-formed trace JSON containing
// the refine request's span, and /metrics must reflect all of it.
func runSmoke(url, page string, rng *rand.Rand, schema *relation.Schema,
	startRules []string, startVersion int, scored, errCount int64, worstReq slowest, client clientLatencies) error {
	if scored == 0 {
		return fmt.Errorf("no transactions scored during the load phase")
	}
	if errCount > 0 {
		return fmt.Errorf("%d scoring requests failed", errCount)
	}
	if worstReq.requestID == "" {
		return fmt.Errorf("no request_id decoded from any scoring response")
	}
	if v, ok := telemetry.ScrapeValue(page, "rudolf_score_tx_total"); !ok || int64(v) < scored {
		return fmt.Errorf("rudolf_score_tx_total = %v (ok=%v), want >= %d", v, ok, scored)
	}
	if err := crossCheckStages(page, client); err != nil {
		return err
	}
	if err := checkBuildInfo(page); err != nil {
		return err
	}
	if err := checkAlerts(url, page); err != nil {
		return err
	}

	// Decision provenance: run explain-mode scores against the still-live
	// start version, validate the attribution invariants, feed one flagged
	// transaction back as fraud and assert the rule-health join saw it. This
	// must run BEFORE the swap below: publishing resets the health epoch.
	if err := checkExplainAndHealth(url, rng, schema, startRules, startVersion); err != nil {
		return err
	}
	if err := checkAudit(url, startVersion); err != nil {
		return err
	}

	// Swap: republish the same rules; the version must bump even so (every
	// publish is a new history version).
	raw, err := json.Marshal(map[string]any{"rules": startRules, "comment": "loadgen smoke swap"})
	if err != nil {
		return err
	}
	resp, err := http.Post(url+"/v1/rules", "application/json", bytes.NewReader(raw))
	if err != nil {
		return err
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST /v1/rules: %d %s", resp.StatusCode, body)
	}
	_, afterVersion, err := fetchRules(url)
	if err != nil {
		return err
	}
	if afterVersion <= startVersion {
		return fmt.Errorf("version did not bump on swap: %d -> %d", startVersion, afterVersion)
	}

	// The metrics page must have moved with the swap.
	page2, err := fetchMetrics(url)
	if err != nil {
		return err
	}
	if v, ok := telemetry.ScrapeValue(page2, "rudolf_rules_version"); !ok || int(v) != afterVersion {
		return fmt.Errorf("rudolf_rules_version = %v (ok=%v), want %d", v, ok, afterVersion)
	}
	swapsBefore, _ := telemetry.ScrapeValue(page, "rudolf_rule_swaps_total")
	swapsAfter, ok := telemetry.ScrapeValue(page2, "rudolf_rule_swaps_total")
	if !ok || swapsAfter <= swapsBefore {
		return fmt.Errorf("rudolf_rule_swaps_total did not move: %v -> %v", swapsBefore, swapsAfter)
	}

	// Refinement pass: push a labeled feedback batch and run one /refine, then
	// assert the refinement observability series and the trace both saw it.
	resp, err = http.Post(url+"/v1/feedback", "application/json", bytes.NewReader(feedbackBody(rng, schema, 32)))
	if err != nil {
		return err
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST /v1/feedback: %d %s", resp.StatusCode, body)
	}
	resp, err = http.Post(url+"/v1/refine", "application/json", strings.NewReader("{}"))
	if err != nil {
		return err
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST /v1/refine: %d %s", resp.StatusCode, body)
	}
	var refined struct {
		RequestID string `json:"request_id"`
	}
	if err := json.Unmarshal(body, &refined); err != nil || refined.RequestID == "" {
		return fmt.Errorf("POST /v1/refine carries no request_id (body %s): %v", body, err)
	}

	page3, err := fetchMetrics(url)
	if err != nil {
		return err
	}
	h, err := telemetry.ScrapeHistogram(strings.NewReader(page3), "rudolf_refine_round_duration_seconds")
	if err != nil {
		return fmt.Errorf("scraping rudolf_refine_round_duration_seconds: %w", err)
	}
	if h.Total == 0 {
		return fmt.Errorf("rudolf_refine_round_duration_seconds observed no rounds after /refine")
	}
	for _, series := range []string{
		`rudolf_expert_queries_total{kind="generalization"}`,
		`rudolf_expert_queries_total{kind="split"}`,
		`rudolf_capture_cache_hits_total{caller="serve"}`,
		`rudolf_capture_cache_misses_total{caller="refine"}`,
	} {
		if !strings.Contains(page3, series) {
			return fmt.Errorf("/metrics missing refinement series %s", series)
		}
	}

	// The trace endpoint must return well-formed Chrome trace JSON whose
	// events include the refine request's span, correlated by request id.
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if _, err := getJSON(url, "/v1/trace", &doc); err != nil {
		return err
	}
	if len(doc.TraceEvents) == 0 {
		return fmt.Errorf("GET /v1/trace returned no events")
	}
	refineSeen := false
	for _, ev := range doc.TraceEvents {
		if ev.Name == "request.refine" && ev.Args["id"] == refined.RequestID {
			refineSeen = true
			break
		}
	}
	if !refineSeen {
		return fmt.Errorf("trace has no request.refine span with id %s", refined.RequestID)
	}
	fmt.Printf("loadgen: smoke refine %s: %d refinement rounds traced, %d trace events\n",
		refined.RequestID, h.Total, len(doc.TraceEvents))

	// Stateful velocity rules: publish a windowed COUNT rule and drive a
	// same-key burst through it (no-op when the schema has no time role).
	if err := checkVelocity(url, rng, schema); err != nil {
		return err
	}

	// Observability: a deliberately slow request must land in the slow ring
	// with a stage breakdown, and /v1/debug/state must be well-formed.
	return checkDebugObservability(url, rng, schema)
}

// checkBuildInfo asserts the build-identity gauge: rudolf_build_info must
// be a constant 1 labeled with the Go runtime version — which, for a
// locally built daemon, is the very toolchain that built this loadgen.
func checkBuildInfo(page string) error {
	series := fmt.Sprintf(`rudolf_build_info{go_version=%q,version=`, goruntime.Version())
	for _, line := range strings.Split(page, "\n") {
		if !strings.HasPrefix(line, series) {
			continue
		}
		if !strings.HasSuffix(strings.TrimSpace(line), " 1") {
			return fmt.Errorf("rudolf_build_info is not constant 1: %q", line)
		}
		fmt.Printf("loadgen: smoke build-info ok: %s\n", strings.TrimSpace(line))
		return nil
	}
	return fmt.Errorf("/metrics has no rudolf_build_info series for %s", goruntime.Version())
}

// checkAlerts asserts the alerting surface's shape: GET /v1/alerts serves
// the compiled-in default rules (all inactive on a healthy freshly loaded
// daemon) with a working ETag, and /metrics exports the matching
// ALERTS{name,severity,state} gauge family. The breach-and-resolve
// lifecycle is exercised by scripts/smoke.sh with an aggressive rule file;
// here the defaults must simply be present, evaluable and quiet.
func checkAlerts(url, page string) error {
	var doc struct {
		RequestID string `json:"request_id"`
		Firing    int    `json:"firing"`
		Rules     []struct {
			Name  string `json:"name"`
			State string `json:"state"`
			Expr  string `json:"expr"`
		} `json:"rules"`
	}
	hdr, err := getJSON(url, "/v1/alerts?refresh=1", &doc)
	if err != nil {
		return err
	}
	etag := hdr.Get("ETag")
	if etag == "" {
		return fmt.Errorf("GET /v1/alerts carries no ETag")
	}
	if doc.RequestID == "" || len(doc.Rules) == 0 {
		return fmt.Errorf("/v1/alerts request_id=%q rules=%d malformed", doc.RequestID, len(doc.Rules))
	}
	for _, r := range doc.Rules {
		if r.Name == "" || r.State == "" || r.Expr == "" {
			return fmt.Errorf("/v1/alerts rule malformed: %+v", r)
		}
		if r.State == "firing" {
			return fmt.Errorf("default alert %s firing on a freshly loaded daemon (%s)", r.Name, r.Expr)
		}
		series := fmt.Sprintf(`ALERTS{name=%q,severity=`, r.Name)
		if !strings.Contains(page, series) {
			return fmt.Errorf("/metrics missing the ALERTS gauge family for alert %s", r.Name)
		}
	}
	// The ETag must answer a conditional re-read with 304 (no transitions
	// can have happened: nothing fires and we installed no rules).
	req, err := http.NewRequest(http.MethodGet, url+"/v1/alerts", nil)
	if err != nil {
		return err
	}
	req.Header.Set("If-None-Match", etag)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		return fmt.Errorf("conditional GET /v1/alerts: %d, want 304", resp.StatusCode)
	}
	fmt.Printf("loadgen: smoke alerts ok: %d default rules installed, %d firing, ETag %s honored\n",
		len(doc.Rules), doc.Firing, etag)
	return nil
}

// crossCheckStages validates the server's per-stage histograms against the
// client's own measurements of the load phase: every always-on stage saw
// every request, and the server-side stage time per request cannot exceed
// what the client observed end to end (client time adds the network).
func crossCheckStages(page string, client clientLatencies) error {
	if client.requests == 0 {
		return fmt.Errorf("no client-side latencies recorded during the load phase")
	}
	stages := scrapeStages(page)
	var totalStage float64
	for _, st := range []string{"decode", "eval", "encode", "write"} {
		s, ok := stages[st]
		if !ok {
			return fmt.Errorf("/metrics has no rudolf_stage_duration_seconds series for stage %q", st)
		}
		if s.count < float64(client.requests) {
			return fmt.Errorf("stage %q observed %.0f requests, client sent %d", st, s.count, client.requests)
		}
	}
	for _, s := range stages {
		totalStage += s.sum
	}
	clientTotal := client.total.Seconds()
	if totalStage > clientTotal*1.05 {
		return fmt.Errorf("server stage time %.3fs exceeds client-observed request time %.3fs: stages cannot take longer than the requests that contain them",
			totalStage, clientTotal)
	}
	fmt.Printf("loadgen: smoke stages ok: %.1f%% of client-observed time attributed server-side across %d stages\n",
		100*totalStage/clientTotal, len(stages))
	return nil
}

// checkDebugObservability drives the tail-sampling path end to end: one
// deliberately heavy request (a max-size explain_all batch, orders of
// magnitude more work than the load phase's batches) must exceed the
// adaptive p99 threshold and surface in GET /v1/debug/slow with a per-stage
// breakdown that accounts for its latency; GET /v1/debug/state must return
// a well-formed consolidated document.
func checkDebugObservability(url string, rng *rand.Rand, schema *relation.Schema) error {
	// A slow request's uncovered time is occasionally dominated by a GC
	// pause or scheduler hiccup outside the stage taxonomy — often the very
	// reason it was slow enough to promote. The structural assertions are
	// unconditional; only the 90% coverage bound earns a fresh probe.
	const probeAttempts = 5
	var lastCoverage error
	for attempt := 0; attempt < probeAttempts; attempt++ {
		raw, err := json.Marshal(map[string]any{"transactions": randomTxs(rng, schema, 4096), "explain_all": true})
		if err != nil {
			return err
		}
		resp, err := http.Post(url+"/v1/score", "application/json", bytes.NewReader(raw))
		if err != nil {
			return err
		}
		slowID := resp.Header.Get("X-Request-Id")
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("slow-probe POST /v1/score: %d", resp.StatusCode)
		}
		if slowID == "" {
			return fmt.Errorf("slow-probe response carries no X-Request-Id")
		}

		var slow struct {
			Count         int   `json:"count"`
			PromotedTotal int   `json:"promoted_total"`
			ThresholdNS   int64 `json:"threshold_ns"`
			Entries       []struct {
				RequestID    string           `json:"request_id"`
				Name         string           `json:"name"`
				DurNS        int64            `json:"dur_ns"`
				StagesNS     map[string]int64 `json:"stages_ns"`
				StageTotalNS int64            `json:"stage_total_ns"`
				Spans        []struct {
					Name string `json:"name"`
				} `json:"spans"`
			} `json:"entries"`
		}
		if _, err := getJSON(url, "/v1/debug/slow", &slow); err != nil {
			return err
		}
		if slow.Count == 0 || slow.Count != len(slow.Entries) || slow.PromotedTotal < slow.Count {
			return fmt.Errorf("/v1/debug/slow count=%d entries=%d promoted=%d malformed",
				slow.Count, len(slow.Entries), slow.PromotedTotal)
		}
		found := false
		lastCoverage = nil
		for _, e := range slow.Entries {
			if e.RequestID != slowID {
				continue
			}
			found = true
			if e.Name != "request.score" {
				return fmt.Errorf("slow entry %s has root %q, want request.score", slowID, e.Name)
			}
			if len(e.StagesNS) == 0 || len(e.Spans) < 2 {
				return fmt.Errorf("slow entry %s has no stage breakdown (stages=%d spans=%d)",
					slowID, len(e.StagesNS), len(e.Spans))
			}
			// Stage intervals are disjoint and contained in the root span: the
			// sum can never exceed the end-to-end duration, and for a request
			// this heavy it must account for it to within 10%.
			if e.StageTotalNS > e.DurNS {
				return fmt.Errorf("slow entry %s: stages sum to %s of a %s request",
					slowID, time.Duration(e.StageTotalNS), time.Duration(e.DurNS))
			}
			if e.StageTotalNS < e.DurNS*9/10 {
				lastCoverage = fmt.Errorf("slow entry %s: stages sum to %s of a %s request, want within 10%%",
					slowID, time.Duration(e.StageTotalNS), time.Duration(e.DurNS))
				continue
			}
			fmt.Printf("loadgen: smoke slow-trace ok: request %s (%s) retained with %d stages covering %.1f%% (threshold %s)\n",
				slowID, time.Duration(e.DurNS).Round(time.Microsecond), len(e.StagesNS),
				100*float64(e.StageTotalNS)/float64(e.DurNS), time.Duration(slow.ThresholdNS).Round(time.Microsecond))
		}
		if !found {
			return fmt.Errorf("slow probe %s not in /v1/debug/slow (%d entries, threshold %s)",
				slowID, slow.Count, time.Duration(slow.ThresholdNS))
		}
		if lastCoverage == nil {
			break
		}
		fmt.Printf("loadgen: smoke slow-trace retry %d/%d: %v\n", attempt+1, probeAttempts, lastCoverage)
	}
	if lastCoverage != nil {
		return lastCoverage
	}

	var state struct {
		UptimeSeconds float64 `json:"uptime_seconds"`
		Version       int     `json:"version"`
		Rules         int     `json:"rules"`
		Workers       int     `json:"workers"`
		ScoredTx      uint64  `json:"scored_tx"`
		Trace         struct {
			Capacity int `json:"capacity"`
			Held     int `json:"held"`
		} `json:"trace"`
		Slow struct {
			Capacity int `json:"capacity"`
			Len      int `json:"len"`
			Promoted int `json:"promoted"`
		} `json:"slow"`
		Window *struct {
			Entries int64 `json:"entries"`
		} `json:"window"`
		Runtime struct {
			Goroutines int64 `json:"goroutines"`
			HeapBytes  int64 `json:"heap_bytes"`
		} `json:"runtime"`
	}
	if _, err := getJSON(url, "/v1/debug/state", &state); err != nil {
		return err
	}
	switch {
	case state.UptimeSeconds <= 0:
		return fmt.Errorf("/v1/debug/state uptime_seconds = %v", state.UptimeSeconds)
	case state.Version <= 0 || state.Rules <= 0 || state.Workers <= 0:
		return fmt.Errorf("/v1/debug/state version=%d rules=%d workers=%d malformed", state.Version, state.Rules, state.Workers)
	case state.ScoredTx == 0:
		return fmt.Errorf("/v1/debug/state scored_tx = 0 after the load phase")
	case state.Trace.Capacity <= 0 || state.Trace.Held <= 0:
		return fmt.Errorf("/v1/debug/state trace capacity=%d held=%d", state.Trace.Capacity, state.Trace.Held)
	case state.Slow.Capacity <= 0 || state.Slow.Len == 0 || state.Slow.Promoted == 0:
		return fmt.Errorf("/v1/debug/state slow capacity=%d len=%d promoted=%d", state.Slow.Capacity, state.Slow.Len, state.Slow.Promoted)
	case state.Runtime.Goroutines <= 0 || state.Runtime.HeapBytes <= 0:
		return fmt.Errorf("/v1/debug/state runtime goroutines=%d heap_bytes=%d", state.Runtime.Goroutines, state.Runtime.HeapBytes)
	}
	if schema.TimeAttr() >= 0 {
		if state.Window == nil || state.Window.Entries == 0 {
			return fmt.Errorf("/v1/debug/state window empty after velocity bursts (window=%+v)", state.Window)
		}
	}
	fmt.Printf("loadgen: smoke debug-state ok: version %d, %d rules, %d tx scored, %d slow traces retained\n",
		state.Version, state.Rules, state.ScoredTx, state.Slow.Len)
	return nil
}

// checkExplainAndHealth exercises the decision-provenance path end to end:
// GET /v1/rules/health must report the live version with traffic accounted,
// an explain-mode /v1/score must return per-rule, per-condition attributions
// that satisfy the margin invariant (a check passes iff its margin is >= 0,
// a transaction is flagged iff it matched at least one rule), and feeding a
// flagged transaction back as labeled fraud must move that rule's TP count
// in the next health snapshot.
func checkExplainAndHealth(url string, rng *rand.Rand, schema *relation.Schema,
	ruleTexts []string, version int) error {
	ruleCount := len(ruleTexts)
	health, etag, err := fetchRuleHealth(url)
	if err != nil {
		return err
	}
	if health.Version != version {
		return fmt.Errorf("/v1/rules/health version = %d, want live version %d", health.Version, version)
	}
	if health.TotalScored == 0 {
		return fmt.Errorf("/v1/rules/health total_scored = 0 after the load phase")
	}
	if len(health.Rules) != ruleCount {
		return fmt.Errorf("/v1/rules/health reports %d rules, want %d", len(health.Rules), ruleCount)
	}
	if etag == "" {
		return fmt.Errorf("/v1/rules/health carries no ETag")
	}

	// One explain batch: random transactions (whatever their verdict, every
	// attribution must be internally consistent) plus one transaction
	// crafted from the published rule texts to match by construction, so the
	// flagged path is exercised deterministically.
	crafted, err := craftMatchingTx(schema, ruleTexts)
	if err != nil {
		return err
	}
	txs := append(randomTxs(rng, schema, 31), crafted)
	raw, err := json.Marshal(map[string]any{"transactions": txs, "explain": true})
	if err != nil {
		return err
	}
	resp, err := http.Post(url+"/v1/score", "application/json", bytes.NewReader(raw))
	if err != nil {
		return err
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("explain-mode POST /v1/score: %d %s", resp.StatusCode, body)
	}
	var out struct {
		Version      int    `json:"version"`
		Flagged      []bool `json:"flagged"`
		Explanations []struct {
			Flagged bool  `json:"flagged"`
			Matched []int `json:"matched"`
			Rules   []struct {
				Rule    int  `json:"rule"`
				Matched bool `json:"matched"`
				Checks  []struct {
					Attr   string `json:"attr"`
					Kind   string `json:"kind"`
					Pass   bool   `json:"pass"`
					Margin int64  `json:"margin"`
				} `json:"checks"`
			} `json:"rules"`
		} `json:"explanations"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return fmt.Errorf("explain-mode /v1/score response: %w", err)
	}
	if len(out.Explanations) != len(txs) {
		return fmt.Errorf("explain-mode /v1/score returned %d explanations for %d transactions", len(out.Explanations), len(txs))
	}
	for i, e := range out.Explanations {
		if e.Flagged != (len(e.Matched) > 0) {
			return fmt.Errorf("explanation %d: flagged=%v but %d matched rules", i, e.Flagged, len(e.Matched))
		}
		if e.Flagged != out.Flagged[i] {
			return fmt.Errorf("explanation %d disagrees with flagged[%d]", i, i)
		}
		for _, re := range e.Rules {
			if re.Rule < 0 || re.Rule >= ruleCount {
				return fmt.Errorf("explanation %d attributes rule %d outside [0,%d)", i, re.Rule, ruleCount)
			}
			// Default explain mode carries breakdowns only for fired rules
			// (explain_all is the full-table form).
			if !re.Matched {
				return fmt.Errorf("explanation %d: non-matched rule %d in the default explain breakdown", i, re.Rule)
			}
			for _, c := range re.Checks {
				if c.Pass != (c.Margin >= 0) {
					return fmt.Errorf("explanation %d rule %d check %s: pass=%v margin=%d violates the margin invariant",
						i, re.Rule, c.Attr, c.Pass, c.Margin)
				}
			}
		}
		for _, m := range e.Matched {
			found := false
			for _, re := range e.Rules {
				if re.Rule != m {
					continue
				}
				found = true
				if !re.Matched {
					return fmt.Errorf("explanation %d: matched rule %d reported matched=false", i, m)
				}
				for _, c := range re.Checks {
					if !c.Pass {
						return fmt.Errorf("explanation %d: matched rule %d has failing check %s", i, m, c.Attr)
					}
				}
			}
			if !found {
				return fmt.Errorf("explanation %d: matched rule %d missing from the rule breakdown", i, m)
			}
		}
	}
	last := out.Explanations[len(out.Explanations)-1]
	if !last.Flagged {
		return fmt.Errorf("crafted rule-matching transaction was not flagged")
	}
	flaggedTx, flaggedRule := crafted, last.Matched[0]

	// The flagged transaction's first-match rule must have fired, and feeding
	// it back as labeled fraud must count as a true positive for it.
	health, _, err = fetchRuleHealth(url)
	if err != nil {
		return err
	}
	if health.Rules[flaggedRule].Fires == 0 {
		return fmt.Errorf("rule %d flagged a transaction but reports 0 fires", flaggedRule)
	}
	tpBefore := health.Rules[flaggedRule].TP
	flaggedTx["label"] = "fraud"
	raw, err = json.Marshal(map[string]any{"transactions": []map[string]any{flaggedTx}})
	if err != nil {
		return err
	}
	resp, err = http.Post(url+"/v1/feedback", "application/json", bytes.NewReader(raw))
	if err != nil {
		return err
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST /v1/feedback (flagged fraud): %d %s", resp.StatusCode, body)
	}
	health, _, err = fetchRuleHealth(url)
	if err != nil {
		return err
	}
	if health.Rules[flaggedRule].TP <= tpBefore {
		return fmt.Errorf("rule %d tp = %d after fraud feedback it captures, want > %d",
			flaggedRule, health.Rules[flaggedRule].TP, tpBefore)
	}
	fmt.Printf("loadgen: smoke explain ok: rule %d fired %d times, tp %d -> %d after fraud feedback\n",
		flaggedRule, health.Rules[flaggedRule].Fires, tpBefore, health.Rules[flaggedRule].TP)
	return nil
}

// craftMatchingTx builds a wire transaction that satisfies the first
// satisfiable published rule by construction: each numeric condition
// contributes its interval's low end, each categorical condition a leaf
// admitted by its concept bound, and the risk score the rule's threshold.
func craftMatchingTx(schema *relation.Schema, ruleTexts []string) (map[string]any, error) {
	for _, text := range ruleTexts {
		r, err := rules.Parse(schema, text)
		if err != nil {
			return nil, fmt.Errorf("published rule %q does not parse: %w", text, err)
		}
		if r.IsEmpty(schema) {
			continue
		}
		if len(r.Windows()) > 0 {
			// A windowed (velocity) rule depends on the server's aggregate
			// state, not on any single transaction — no crafted tuple can
			// match it by construction. checkVelocity exercises these.
			continue
		}
		attrs := make(map[string]any, schema.Arity())
		ok := true
		for a := 0; a < schema.Arity() && ok; a++ {
			attr := schema.Attr(a)
			cond := r.Cond(a)
			if attr.Kind == relation.Categorical {
				ok = false
				for _, leaf := range attr.Ontology.Leaves() {
					if cond.Admits(attr, int64(leaf)) {
						attrs[attr.Name] = attr.Ontology.ConceptName(ontology.Concept(leaf))
						ok = true
						break
					}
				}
				continue
			}
			iv := cond.Iv.Intersect(attr.Domain.Full())
			if iv.IsEmpty() {
				ok = false
				continue
			}
			attrs[attr.Name] = iv.Lo
		}
		if !ok {
			continue
		}
		return map[string]any{"attrs": attrs, "score": int(r.MinScore())}, nil
	}
	return nil, fmt.Errorf("none of the %d published rules is satisfiable", len(ruleTexts))
}

// Velocity burst constants shared by the smoke and crash flows: a windowed
// COUNT rule with this threshold fires on the threshold-th same-key probe
// inside the window. The crash flow sends velocityPreCrash probes before the
// kill and the remainder after recovery, so the rule firing post-restart
// with margin 0 proves the aggregate state was reconstructed exactly.
const (
	velocityThreshold = 5
	velocityPreCrash  = 3
	velocityStartMin  = 200 // first probe's time-attribute value
)

// velocityRuleText builds a windowed velocity rule over the daemon's schema:
// COUNT over the first categorical attribute (the first non-time attribute
// when there is none), 10-minute window. Returns the key attribute index.
func velocityRuleText(schema *relation.Schema) (string, int, error) {
	if schema.TimeAttr() < 0 {
		return "", -1, fmt.Errorf("schema has no time attribute")
	}
	key := -1
	for a := 0; a < schema.Arity(); a++ {
		if a == schema.TimeAttr() {
			continue
		}
		if schema.Attr(a).Kind == relation.Categorical {
			key = a
			break
		}
		if key < 0 {
			key = a
		}
	}
	if key < 0 {
		return "", -1, fmt.Errorf("schema has no usable key attribute")
	}
	return fmt.Sprintf("COUNT(%s, 10m) >= %d", schema.Attr(key).Name, velocityThreshold), key, nil
}

// velocityTxs builds n burst probes: every probe carries the key attribute's
// first leaf (or domain minimum) and times one minute apart from start, so
// they all land in one 10-minute window of one aggregation key.
func velocityTxs(rng *rand.Rand, schema *relation.Schema, key, start, n int) []map[string]any {
	txs := randomTxs(rng, schema, n)
	timeName := schema.Attr(schema.TimeAttr()).Name
	keyAttr := schema.Attr(key)
	var keyVal any
	if keyAttr.Kind == relation.Categorical {
		keyVal = keyAttr.Ontology.ConceptName(ontology.Concept(keyAttr.Ontology.Leaves()[0]))
	} else {
		keyVal = keyAttr.Domain.Min
	}
	for i := range txs {
		attrs := txs[i]["attrs"].(map[string]any)
		attrs[timeName] = start + i
		attrs[keyAttr.Name] = keyVal
	}
	return txs
}

// velocityExplain is the explain-mode response subset the velocity checks
// decode.
type velocityExplain struct {
	Flagged      []bool `json:"flagged"`
	Explanations []struct {
		Matched []int `json:"matched"`
		Rules   []struct {
			Rule   int `json:"rule"`
			Checks []struct {
				Attr   string `json:"attr"`
				Kind   string `json:"kind"`
				Pass   bool   `json:"pass"`
				Margin int64  `json:"margin"`
			} `json:"checks"`
		} `json:"rules"`
	} `json:"explanations"`
}

// scoreVelocityBurst publishes nothing; it scores the given burst with
// explain and decodes the response.
func scoreVelocityBurst(url string, txs []map[string]any) (velocityExplain, error) {
	var out velocityExplain
	raw, err := json.Marshal(map[string]any{"transactions": txs, "explain": true})
	if err != nil {
		return out, err
	}
	resp, err := http.Post(url+"/v1/score", "application/json", bytes.NewReader(raw))
	if err != nil {
		return out, err
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("velocity POST /v1/score: %d %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return out, fmt.Errorf("velocity /v1/score response: %w", err)
	}
	if len(out.Explanations) != len(txs) {
		return out, fmt.Errorf("velocity /v1/score returned %d explanations for %d probes", len(out.Explanations), len(txs))
	}
	return out, nil
}

// publishWithVelocityRule appends the velocity rule to the currently
// published set and republishes; returns the new rule's index and key attr.
func publishWithVelocityRule(url string, schema *relation.Schema) (velIdx, key int, err error) {
	ruleText, key, err := velocityRuleText(schema)
	if err != nil {
		return -1, -1, err
	}
	cur, _, err := fetchRules(url)
	if err != nil {
		return -1, -1, err
	}
	raw, err := json.Marshal(map[string]any{"rules": append(cur, ruleText), "comment": "loadgen velocity"})
	if err != nil {
		return -1, -1, err
	}
	resp, err := http.Post(url+"/v1/rules", "application/json", bytes.NewReader(raw))
	if err != nil {
		return -1, -1, err
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return -1, -1, fmt.Errorf("POST /v1/rules (velocity): %d %s", resp.StatusCode, body)
	}
	return len(cur), key, nil
}

// checkVelocity exercises the stateful scoring path end to end: publish a
// windowed COUNT rule, drive a same-key burst through /v1/score, and assert
// the rule stays quiet below the threshold, fires exactly at it with a
// window-kind check satisfying the margin invariant, and shows up firing in
// GET /v1/rules/health.
func checkVelocity(url string, rng *rand.Rand, schema *relation.Schema) error {
	if schema.TimeAttr() < 0 {
		fmt.Println("loadgen: smoke velocity skipped (schema has no time attribute)")
		return nil
	}
	velIdx, key, err := publishWithVelocityRule(url, schema)
	if err != nil {
		return err
	}
	out, err := scoreVelocityBurst(url, velocityTxs(rng, schema, key, velocityStartMin, velocityThreshold))
	if err != nil {
		return err
	}
	if slices.Contains(out.Explanations[0].Matched, velIdx) {
		return fmt.Errorf("velocity rule %d fired on the burst's first probe", velIdx)
	}
	last := out.Explanations[len(out.Explanations)-1]
	if !slices.Contains(last.Matched, velIdx) {
		return fmt.Errorf("velocity rule %d did not fire on probe %d of a same-key burst", velIdx, velocityThreshold)
	}
	winChecks := 0
	for _, re := range last.Rules {
		if re.Rule != velIdx {
			continue
		}
		for _, c := range re.Checks {
			if c.Kind != "window" {
				continue
			}
			winChecks++
			if !c.Pass || c.Margin < 0 {
				return fmt.Errorf("velocity rule %d window check %s: pass=%v margin=%d on the firing probe",
					velIdx, c.Attr, c.Pass, c.Margin)
			}
			if !strings.Contains(c.Attr, "COUNT(") {
				return fmt.Errorf("window check attr = %q, want the aggregate atom", c.Attr)
			}
		}
	}
	if winChecks == 0 {
		return fmt.Errorf("velocity rule %d fired without a window-kind check in its breakdown", velIdx)
	}
	health, _, err := fetchRuleHealth(url)
	if err != nil {
		return err
	}
	if velIdx >= len(health.Rules) || health.Rules[velIdx].Fires == 0 {
		return fmt.Errorf("/v1/rules/health reports no fires for velocity rule %d", velIdx)
	}
	// The window store's occupancy must be visible on /metrics after the
	// burst: live entries, plus both eviction-cause series (present even at
	// zero — an operator alerts on series that exist).
	page, err := fetchMetrics(url)
	if err != nil {
		return err
	}
	if v, ok := telemetry.ScrapeValue(page, "rudolf_window_entries"); !ok || v <= 0 {
		return fmt.Errorf("rudolf_window_entries = %v (ok=%v) after a velocity burst, want > 0", v, ok)
	}
	for _, series := range []string{
		`rudolf_window_evictions_total{cause="expired"}`,
		`rudolf_window_evictions_total{cause="lru"}`,
	} {
		if _, ok := telemetry.ScrapeValue(page, series); !ok {
			return fmt.Errorf("/metrics missing window eviction series %s", series)
		}
	}
	fmt.Printf("loadgen: smoke velocity ok: rule %d fired on probe %d/%d, %d fires in /v1/rules/health\n",
		velIdx, velocityThreshold, velocityThreshold, health.Rules[velIdx].Fires)
	return nil
}

// velocityPrepare is the crash flow's first half (run with -churn
// -velocity): publish the velocity rule and send the below-threshold prefix
// of a burst, whose observations must survive the coming kill -9.
func velocityPrepare(url string, rng *rand.Rand, schema *relation.Schema) error {
	velIdx, key, err := publishWithVelocityRule(url, schema)
	if err != nil {
		return err
	}
	out, err := scoreVelocityBurst(url, velocityTxs(rng, schema, key, velocityStartMin, velocityPreCrash))
	if err != nil {
		return err
	}
	for i, e := range out.Explanations {
		if slices.Contains(e.Matched, velIdx) {
			return fmt.Errorf("velocity rule %d fired on pre-crash probe %d, below the threshold", velIdx, i)
		}
	}
	fmt.Printf("loadgen: velocity prepared: %d/%d probes observed pre-crash, rule %d quiet\n",
		velocityPreCrash, velocityThreshold, velIdx)
	return nil
}

// velocityResume is the crash flow's second half (run with -resume
// -velocity): the remaining probes of the burst must trip the rule with
// margin exactly 0 — the count is right only if every pre-crash observation
// was recovered from the WAL.
func velocityResume(url string, rng *rand.Rand) error {
	schema, err := fetchSchema(url)
	if err != nil {
		return err
	}
	_, key, err := velocityRuleText(schema)
	if err != nil {
		return err
	}
	texts, _, err := fetchRules(url)
	if err != nil {
		return err
	}
	velIdx := -1
	for i, text := range texts {
		if strings.HasPrefix(text, "COUNT(") {
			velIdx = i
		}
	}
	if velIdx < 0 {
		return fmt.Errorf("restored rule set has no velocity rule: %v", texts)
	}
	n := velocityThreshold - velocityPreCrash
	out, err := scoreVelocityBurst(url, velocityTxs(rng, schema, key, velocityStartMin+velocityPreCrash, n))
	if err != nil {
		return err
	}
	last := out.Explanations[len(out.Explanations)-1]
	if !slices.Contains(last.Matched, velIdx) {
		return fmt.Errorf("velocity rule %d did not fire after recovery: pre-crash observations lost", velIdx)
	}
	for _, re := range last.Rules {
		if re.Rule != velIdx {
			continue
		}
		for _, c := range re.Checks {
			if c.Kind == "window" && c.Margin != 0 {
				return fmt.Errorf("post-recovery window margin = %d, want 0 (count must be exactly %d)",
					c.Margin, velocityThreshold)
			}
		}
	}
	fmt.Printf("loadgen: velocity resume ok: rule %d fired on probe %d with margin 0 after the crash\n",
		velIdx, velocityThreshold)
	return nil
}

// checkAudit asserts the sampled decision audit ring retained entries from
// the load phase (the default 1-in-100 sampling sees thousands of scored
// transactions) and that each entry is well-formed.
func checkAudit(url string, version int) error {
	var out struct {
		Version  int `json:"version"`
		Retained int `json:"retained"`
		Count    int `json:"count"`
		Entries  []struct {
			Seq   uint64            `json:"seq"`
			Rule  int               `json:"rule"`
			Attrs map[string]string `json:"attrs"`
		} `json:"entries"`
	}
	if _, err := getJSON(url, "/v1/audit?n=5", &out); err != nil {
		return err
	}
	if out.Version != version {
		return fmt.Errorf("/v1/audit version = %d, want %d", out.Version, version)
	}
	if out.Retained == 0 || out.Count == 0 || len(out.Entries) != out.Count {
		return fmt.Errorf("/v1/audit retained=%d count=%d entries=%d, want sampled decisions after the load phase",
			out.Retained, out.Count, len(out.Entries))
	}
	for i, e := range out.Entries {
		if e.Rule < -1 || len(e.Attrs) == 0 {
			return fmt.Errorf("/v1/audit entry %d malformed: rule=%d attrs=%d", i, e.Rule, len(e.Attrs))
		}
	}
	return nil
}

// runChurn drives the durable write path: n labeled feedback batches
// interleaved with n rule republishes, then records the resulting rule-set
// version and feedback total (stdout, and stateFile when set) for a later
// -resume run to assert against.
func runChurn(url string, rng *rand.Rand, schema *relation.Schema, startRules []string, n int, stateFile string, velocity bool) error {
	for i := 0; i < n; i++ {
		resp, err := http.Post(url+"/v1/feedback", "application/json", bytes.NewReader(feedbackBody(rng, schema, 8)))
		if err != nil {
			return err
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("POST /v1/feedback (churn %d): %d %s", i, resp.StatusCode, body)
		}
		raw, err := json.Marshal(map[string]any{"rules": startRules, "comment": fmt.Sprintf("loadgen churn %d", i)})
		if err != nil {
			return err
		}
		resp, err = http.Post(url+"/v1/rules", "application/json", bytes.NewReader(raw))
		if err != nil {
			return err
		}
		body, _ = io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("POST /v1/rules (churn %d): %d %s", i, resp.StatusCode, body)
		}
	}
	// The velocity publish must happen before the state is recorded: it bumps
	// the version the -resume run asserts against.
	if velocity {
		if err := velocityPrepare(url, rng, schema); err != nil {
			return err
		}
	}
	version, feedback, err := fetchStats(url)
	if err != nil {
		return err
	}
	fmt.Printf("loadgen: churn state version=%d feedback=%d\n", version, feedback)
	if stateFile != "" {
		state := fmt.Sprintf("version=%d feedback=%d\n", version, feedback)
		if err := os.WriteFile(stateFile, []byte(state), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// runResume asserts a restarted daemon restored the recorded state: version
// and feedback count match, the boot replayed WAL records, and errors arrive
// in the uniform envelope.
func runResume(url string, expectVer, expectFb int, stateFile string, velocity bool) error {
	if stateFile != "" && (expectVer < 0 || expectFb < 0) {
		raw, err := os.ReadFile(stateFile)
		if err != nil {
			return err
		}
		var v, f int
		if _, err := fmt.Sscanf(strings.TrimSpace(string(raw)), "version=%d feedback=%d", &v, &f); err != nil {
			return fmt.Errorf("state file %s: %w", stateFile, err)
		}
		if expectVer < 0 {
			expectVer = v
		}
		if expectFb < 0 {
			expectFb = f
		}
	}
	if expectVer < 0 || expectFb < 0 {
		return fmt.Errorf("need -expect-version and -expect-feedback (or -state-file)")
	}

	version, feedback, err := fetchStats(url)
	if err != nil {
		return err
	}
	if version != expectVer {
		return fmt.Errorf("restored rule-set version = %d, want %d", version, expectVer)
	}
	if feedback != expectFb {
		return fmt.Errorf("restored feedback count = %d, want %d", feedback, expectFb)
	}

	// The boot must have actually replayed the log, not just started fresh.
	page, err := fetchMetrics(url)
	if err != nil {
		return err
	}
	if v, ok := telemetry.ScrapeValue(page, "rudolf_wal_replayed_records_total"); !ok || v <= 0 {
		return fmt.Errorf("rudolf_wal_replayed_records_total = %v (ok=%v), want > 0 after a restart", v, ok)
	}

	// Rule health must reset coherently to the replayed version: same
	// version as /v1/stats, a fresh epoch with nothing scored yet.
	health, _, err := fetchRuleHealth(url)
	if err != nil {
		return err
	}
	if health.Version != expectVer {
		return fmt.Errorf("/v1/rules/health version = %d after restart, want replayed version %d", health.Version, expectVer)
	}
	if health.TotalScored != 0 {
		return fmt.Errorf("/v1/rules/health total_scored = %d on a fresh boot, want 0", health.TotalScored)
	}

	// Errors arrive in the uniform envelope with a stable code.
	resp, err := http.Post(url+"/v1/score", "application/json", strings.NewReader(`{"transactions":[]}`))
	if err != nil {
		return err
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		return fmt.Errorf("empty /v1/score batch: %d %s, want 400", resp.StatusCode, body)
	}
	var envelope struct {
		Error struct {
			Code      string `json:"code"`
			Message   string `json:"message"`
			RequestID string `json:"request_id"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &envelope); err != nil || envelope.Error.Code != "bad_request" || envelope.Error.Message == "" {
		return fmt.Errorf("error body %s is not the uniform envelope (err %v)", body, err)
	}

	// Velocity convergence: finish the burst velocityPrepare started before
	// the crash; the windowed rule firing with margin 0 proves the aggregate
	// store was rebuilt to the exact pre-crash counts.
	if velocity {
		if err := velocityResume(url, rand.New(rand.NewSource(2))); err != nil {
			return err
		}
	}
	fmt.Printf("loadgen: resume verified version=%d feedback=%d, WAL replay observed, envelope intact\n",
		version, feedback)
	return nil
}

// healthDoc mirrors the /v1/rules/health wire shape loadgen asserts on.
type healthDoc struct {
	Version     int    `json:"version"`
	TotalScored uint64 `json:"total_scored"`
	Rules       []struct {
		Rule      int     `json:"rule"`
		Fires     uint64  `json:"fires"`
		Share     float64 `json:"share"`
		TP        uint64  `json:"tp"`
		FP        uint64  `json:"fp"`
		Precision float64 `json:"precision"`
		Drift     float64 `json:"drift"`
	} `json:"rules"`
}

// getJSON GETs url+path, requires a 200 and decodes the JSON body into out;
// it returns the response headers.
func getJSON(url, path string, out any) (http.Header, error) {
	resp, err := http.Get(url + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %d %s", path, resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, out); err != nil {
		return nil, fmt.Errorf("GET %s is not valid JSON: %w", path, err)
	}
	return resp.Header, nil
}

// fetchRuleHealth reads the per-rule health snapshot and its ETag.
func fetchRuleHealth(url string) (healthDoc, string, error) {
	var out healthDoc
	hdr, err := getJSON(url, "/v1/rules/health", &out)
	return out, hdr.Get("ETag"), err
}

// fetchStats reads the published version and feedback count off /v1/stats.
func fetchStats(url string) (version, feedback int, err error) {
	var out struct {
		Version  int `json:"version"`
		Feedback int `json:"feedback"`
	}
	_, err = getJSON(url, "/v1/stats", &out)
	return out.Version, out.Feedback, err
}

// feedbackBody builds one labeled /feedback batch: random transactions like
// scoreBody's, with fraud/legit/unlabeled labels round-robined so the next
// /refine has both frauds to chase and legitimates to protect.
func feedbackBody(rng *rand.Rand, schema *relation.Schema, n int) []byte {
	labels := []string{"fraud", "legit", "unlabeled"}
	txs := randomTxs(rng, schema, n)
	for i := range txs {
		txs[i]["label"] = labels[i%len(labels)]
	}
	raw, err := json.Marshal(map[string]any{"transactions": txs})
	if err != nil {
		panic(err) // generated values always marshal
	}
	return raw
}

// randomTxs synthesizes n random wire transactions against the schema:
// numeric attributes draw uniformly from their domain, categorical ones pick
// a random ontology leaf, risk scores spread over [0, 1000].
func randomTxs(rng *rand.Rand, schema *relation.Schema, n int) []map[string]any {
	txs := make([]map[string]any, n)
	for i := range txs {
		attrs := make(map[string]any, schema.Arity())
		for a := 0; a < schema.Arity(); a++ {
			attr := schema.Attr(a)
			if attr.Kind == relation.Categorical {
				leaves := attr.Ontology.Leaves()
				c := leaves[rng.Intn(len(leaves))]
				attrs[attr.Name] = attr.Ontology.ConceptName(ontology.Concept(c))
				continue
			}
			attrs[attr.Name] = attr.Domain.Min + rng.Int63n(attr.Domain.Max-attr.Domain.Min+1)
		}
		txs[i] = map[string]any{"attrs": attrs, "score": rng.Intn(relation.MaxScore + 1)}
	}
	return txs
}

// scoreBody builds one random /score batch (see randomTxs).
func scoreBody(rng *rand.Rand, schema *relation.Schema, batch int) []byte {
	raw, err := json.Marshal(map[string]any{"transactions": randomTxs(rng, schema, batch)})
	if err != nil {
		panic(err) // generated values always marshal
	}
	return raw
}

func fetchSchema(url string) (*relation.Schema, error) {
	resp, err := http.Get(url + "/v1/schema")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/schema: %d", resp.StatusCode)
	}
	return relation.ReadSchemaJSON(resp.Body)
}

// rulesDoc mirrors the part of the GET /v1/rules document loadgen reads.
type rulesDoc struct {
	Version int      `json:"version"`
	Rules   []string `json:"rules"`
}

func fetchRules(url string) (rules []string, version int, err error) {
	var out rulesDoc
	_, err = getJSON(url, "/v1/rules", &out)
	return out.Rules, out.Version, err
}

// fetchRulesETag returns the ETag and version of GET /v1/rules — the pair
// runFollowerCheck compares across leader and follower, since identical
// ETags are the replication invariant (DESIGN.md §16).
func fetchRulesETag(url string) (etag string, version int, err error) {
	var out rulesDoc
	hdr, err := getJSON(url, "/v1/rules", &out)
	return hdr.Get("ETag"), out.Version, err
}

// runFollowerCheck asserts the follower-role contract of the target at url
// before the load phase: GET /v1/status reports role=follower and readiness,
// a mutating request bounces with the stable "read_only" envelope and a
// Location header into the leader, GET /v1/rules converges to the leader's
// exact ETag, and scoring still works read-only.
func runFollowerCheck(url, leaderURL string, schema *relation.Schema) error {
	leaderURL = strings.TrimRight(leaderURL, "/")

	// Role + readiness. The follower catches up asynchronously, so readiness
	// is polled rather than demanded immediately.
	var st struct {
		Role  string `json:"role"`
		Ready bool   `json:"ready"`
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		if _, err := getJSON(url, "/v1/status", &st); err != nil {
			return err
		}
		if st.Role != "follower" {
			return fmt.Errorf("/v1/status role = %q, want follower", st.Role)
		}
		if st.Ready {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("follower never became ready")
		}
		time.Sleep(100 * time.Millisecond)
	}

	// Mutations are rejected with the stable envelope and redirected home.
	resp, err := http.Post(url+"/v1/feedback", "application/json", strings.NewReader(`{}`))
	if err != nil {
		return err
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		return fmt.Errorf("POST /v1/feedback on a follower: %d %s, want 403", resp.StatusCode, body)
	}
	var envelope struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &envelope); err != nil || envelope.Error.Code != "read_only" {
		return fmt.Errorf("follower write rejection %s is not the read_only envelope (err %v)", body, err)
	}
	if loc := resp.Header.Get("Location"); !strings.HasPrefix(loc, leaderURL) {
		return fmt.Errorf("follower write rejection Location = %q, want a URL under the leader %s", loc, leaderURL)
	}

	// ETag convergence: the follower must serve the leader's exact rules
	// bytes. Poll briefly — a publish may be streaming right now.
	var letag, fetag string
	var lver, fver int
	deadline = time.Now().Add(10 * time.Second)
	for {
		if letag, lver, err = fetchRulesETag(leaderURL); err != nil {
			return fmt.Errorf("leader rules: %w", err)
		}
		if fetag, fver, err = fetchRulesETag(url); err != nil {
			return fmt.Errorf("follower rules: %w", err)
		}
		if letag != "" && letag == fetag && lver == fver {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("rules never converged: leader %s v%d, follower %s v%d", letag, lver, fetag, fver)
		}
		time.Sleep(100 * time.Millisecond)
	}
	fmt.Printf("loadgen: follower serves rules v%d with the leader's ETag %s\n", fver, fetag)

	// Read-only scoring serves at the replicated version.
	rng := rand.New(rand.NewSource(7))
	resp, err = http.Post(url+"/v1/score", "application/json", bytes.NewReader(scoreBody(rng, schema, 4)))
	if err != nil {
		return err
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("follower /v1/score: %d %s", resp.StatusCode, body)
	}
	var sr struct {
		Version int `json:"version"`
	}
	if err := json.Unmarshal(body, &sr); err != nil || sr.Version != fver {
		return fmt.Errorf("follower scored at version %d (err %v), want %d", sr.Version, err, fver)
	}
	return nil
}

func fetchMetrics(url string) (string, error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	return string(raw), nil
}

func fmtSeconds(s float64) string {
	return time.Duration(s * float64(time.Second)).Round(time.Microsecond).String()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "loadgen:", err)
	os.Exit(1)
}
