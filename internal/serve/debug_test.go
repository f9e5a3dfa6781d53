package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
	"repro/internal/trace"
)

// TestStageClockAllocs pins the stage clock's hot-path cost: zero
// allocations per request when the request is untraced (the always-on
// /metrics attribution path), and a small bounded number when a live
// request span is attached (span data is pooled by the tracer).
func TestStageClockAllocs(t *testing.T) {
	reg := telemetry.NewRegistry()
	var hist [numStages]*telemetry.Histogram
	for st := stage(0); st < numStages; st++ {
		hist[st] = reg.Histogram(
			`rudolf_stage_duration_seconds{stage="`+stageNames[st]+`"}`,
			telemetry.StageBuckets)
	}

	lat := reg.Histogram("rudolf_score_latency_seconds", nil)

	run := func(parent trace.Span) {
		clock := stageClock{parent: parent, hist: &hist, total: lat}
		clock.begin(stageDecode)
		clock.begin(stageWindow)
		clock.begin(stageEval)
		clock.begin(stageWindow) // re-entry accumulates
		clock.begin(stageEncode)
		clock.begin(stageWrite)
		clock.flush()
		clock.flush() // idempotent
	}

	if allocs := testing.AllocsPerRun(200, func() { run(trace.Span{}) }); allocs != 0 {
		t.Fatalf("untraced stage clock allocates %.1f per request, want 0", allocs)
	}

	// Traced: each begin opens a stage.<name> child span. Span data is
	// pooled, so the steady state stays bounded near zero.
	tr := trace.New(trace.Options{Capacity: 256})
	root := tr.Start("request.score")
	defer root.End()
	if allocs := testing.AllocsPerRun(200, func() { run(root) }); allocs > 2 {
		t.Fatalf("traced stage clock allocates %.1f per request, want <= 2", allocs)
	}
}

// TestStageMetricsSeries: after scoring traffic, every stage the request
// actually passed through has observations in its
// rudolf_stage_duration_seconds{stage=...} histogram, and the sum of all
// stage means stays plausible (non-negative, finite).
func TestStageMetricsSeries(t *testing.T) {
	schema := testSchema(t)
	_, ts := newTestServer(t, Config{Schema: schema, Rules: mustRules(t, schema, "amount >= 100")})

	var resp scoreResponse
	for i := 0; i < 3; i++ {
		if code, body := postJSON(t, ts.URL+"/v1/score",
			map[string]any{"transactions": []map[string]any{tx(150, 10, 0)}}, &resp); code != http.StatusOK {
			t.Fatalf("score: %d %s", code, body)
		}
	}

	r, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(r.Body)
	r.Body.Close()
	page := string(raw)

	for _, st := range []string{"decode", "acquire", "eval", "encode", "write"} {
		count, ok := telemetry.ScrapeValue(page, fmt.Sprintf("rudolf_stage_duration_seconds_count{stage=%q}", st))
		if !ok {
			t.Fatalf("/metrics has no stage histogram for %q", st)
		}
		if count < 3 {
			t.Errorf("stage %q observed %v requests, want >= 3", st, count)
		}
		sum, ok := telemetry.ScrapeValue(page, fmt.Sprintf("rudolf_stage_duration_seconds_sum{stage=%q}", st))
		if !ok || sum < 0 {
			t.Errorf("stage %q sum = %v (ok %v), want non-negative", st, sum, ok)
		}
	}
	// The schema has no time attribute, so the window stage never ran — but
	// its series must still exist (registered up front) at zero.
	if count, ok := telemetry.ScrapeValue(page, `rudolf_stage_duration_seconds_count{stage="window"}`); !ok || count != 0 {
		t.Errorf("window stage count = %v (ok %v), want the series present at 0", count, ok)
	}
}

// TestDebugSlowEndpoint drives a request through a server whose slow floor
// is one nanosecond — every request promotes — and checks the slow ring
// export end to end: request-id correlation, the per-stage breakdown, the
// span tree, the Chrome export and the error paths.
func TestDebugSlowEndpoint(t *testing.T) {
	schema := testSchema(t)
	_, ts := newTestServer(t, Config{
		Schema:    schema,
		Rules:     mustRules(t, schema, "amount >= 100"),
		SlowFloor: time.Nanosecond,
	})

	body, _ := json.Marshal(map[string]any{
		"transactions": []map[string]any{tx(150, 10, 0), tx(50, 3, 0)},
		"explain_all":  true,
	})
	resp, err := http.Post(ts.URL+"/v1/score", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("score: %d", resp.StatusCode)
	}
	reqID := resp.Header.Get("X-Request-Id")
	if reqID == "" {
		t.Fatal("score response carries no X-Request-Id")
	}

	var slow debugSlowResponse
	if code := getJSON(t, ts.URL+"/v1/debug/slow", &slow); code != http.StatusOK {
		t.Fatalf("GET /v1/debug/slow: %d", code)
	}
	if slow.Count == 0 || len(slow.Entries) != slow.Count {
		t.Fatalf("slow ring count %d, entries %d: want every 1ns-floor request promoted", slow.Count, len(slow.Entries))
	}
	if slow.PromotedTotal < uint64(slow.Count) || slow.FloorNS != 1 {
		t.Fatalf("promoted_total %d floor_ns %d, want >=%d and 1", slow.PromotedTotal, slow.FloorNS, slow.Count)
	}
	var hit *debugSlowEntry
	for i := range slow.Entries {
		if slow.Entries[i].RequestID == reqID {
			hit = &slow.Entries[i]
		}
	}
	if hit == nil {
		t.Fatalf("no slow entry correlates to request id %q", reqID)
	}
	if hit.Name != "request.score" {
		t.Fatalf("correlated entry root = %q, want request.score", hit.Name)
	}
	if len(hit.StagesNS) == 0 {
		t.Fatal("correlated entry has no per-stage breakdown")
	}
	for _, st := range []string{"decode", "eval", "encode"} {
		if hit.StagesNS[st] <= 0 {
			t.Errorf("stage %q duration = %d, want > 0 (stages: %v)", st, hit.StagesNS[st], hit.StagesNS)
		}
	}
	// Stage intervals are disjoint and contained in the root span, so their
	// sum can never exceed the end-to-end duration.
	if hit.StageTotalNS <= 0 || hit.StageTotalNS > hit.DurNS {
		t.Fatalf("stage_total_ns %d outside (0, dur_ns %d]", hit.StageTotalNS, hit.DurNS)
	}
	if len(hit.Spans) < 2 {
		t.Fatalf("promoted tree holds %d spans, want the root plus stage children", len(hit.Spans))
	}

	// Chrome export: a valid trace_event document with events.
	resp, err = http.Get(ts.URL + "/v1/debug/slow?format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil || len(doc.TraceEvents) == 0 {
		t.Fatalf("chrome export: err %v, %d events", err, len(doc.TraceEvents))
	}

	if code := getJSON(t, ts.URL+"/v1/debug/slow?format=nope", nil); code != http.StatusBadRequest {
		t.Fatalf("unknown format code = %d, want 400", code)
	}
	if code, _ := postJSON(t, ts.URL+"/v1/debug/slow", map[string]any{}, nil); code != http.StatusMethodNotAllowed {
		t.Fatalf("POST code = %d, want 405", code)
	}
}

// TestDebugStateEndpoint boots a durable windowed server, scores a burst,
// and checks the consolidated introspection document covers every
// subsystem: trace, slow ring, window store, WAL, capture cache, runtime.
func TestDebugStateEndpoint(t *testing.T) {
	cfg := velocityDurableConfig(t, t.TempDir())
	cfg.SlowFloor = time.Nanosecond
	_, ts := newTestServer(t, cfg)

	var resp scoreResponse
	for i := 0; i < 3; i++ {
		if code, body := postJSON(t, ts.URL+"/v1/score", vtx(int64(100+i), 1, 50), &resp); code != http.StatusOK {
			t.Fatalf("score %d: %d %s", i, code, body)
		}
	}

	// One feedback append binds the capture cache (it is lazy until used).
	fb := vtx(103, 1, 50)
	fb["label"] = "fraud"
	if code, body := postJSON(t, ts.URL+"/v1/feedback", map[string]any{"transactions": []any{fb}}, nil); code != http.StatusOK {
		t.Fatalf("feedback: %d %s", code, body)
	}

	var st debugStateResponse
	if code := getJSON(t, ts.URL+"/v1/debug/state", &st); code != http.StatusOK {
		t.Fatalf("GET /v1/debug/state: %d", code)
	}
	if st.Now == "" || st.UptimeSeconds <= 0 {
		t.Fatalf("now %q uptime %v, want a live clock", st.Now, st.UptimeSeconds)
	}
	if st.Version < 1 || st.Rules < 1 || st.Workers < 1 {
		t.Fatalf("version %d rules %d workers %d, want all >= 1", st.Version, st.Rules, st.Workers)
	}
	if st.ScoredTx != 3 {
		t.Fatalf("scored_tx = %d, want 3", st.ScoredTx)
	}
	if st.Trace.Capacity <= 0 || st.Trace.Held == 0 {
		t.Fatalf("trace state = %+v, want a live span ring", st.Trace)
	}
	if st.Slow.Capacity <= 0 || st.Slow.Promoted == 0 || st.Slow.Len == 0 {
		t.Fatalf("slow state = %+v, want promotions under the 1ns floor", st.Slow)
	}
	if st.Window == nil {
		t.Fatal("window state missing on a windowed schema")
	}
	// Three observes of one user land in one aggregate entry.
	if st.Window.Entries != 1 || st.Window.Specs != 1 || st.Window.MaxEntries <= 0 {
		t.Fatalf("window state = %+v, want 1 entry over 1 spec", st.Window)
	}
	if st.Window.WatermarkMinutes != 102 {
		t.Fatalf("watermark = %d minutes, want 102 (the newest observed time)", st.Window.WatermarkMinutes)
	}
	if st.Window.OccupiedShards < 1 || st.Window.MaxShard < 1 || len(st.Window.ShardOccupancy) == 0 {
		t.Fatalf("window shard stats = %+v, want occupancy reported", st.Window)
	}
	if st.WAL == nil {
		t.Fatal("wal state missing on a durable server")
	}
	// Each scored transaction appended an observe record under fsync=always.
	if st.WAL.Appends < 3 || st.WAL.Fsyncs < 3 || st.WAL.Segments < 1 || st.WAL.DiskBytes <= 0 {
		t.Fatalf("wal state = %+v, want >=3 fsynced appends on disk", st.WAL)
	}
	if st.Capture.BoundRules < 1 {
		t.Fatalf("capture state = %+v, want the published rule bound", st.Capture)
	}
	if st.Runtime.Goroutines <= 0 || st.Runtime.HeapBytes <= 0 || st.Runtime.HeapObjects <= 0 {
		t.Fatalf("runtime state = %+v, want live runtime gauges", st.Runtime)
	}

	if code, _ := postJSON(t, ts.URL+"/v1/debug/state", map[string]any{}, nil); code != http.StatusMethodNotAllowed {
		t.Fatalf("POST code = %d, want 405", code)
	}
}

// TestConcurrentSlowRingScoring hammers /v1/score while the slow ring is
// promoting every request (1ns floor) and the debug endpoints are polled —
// under -race this is the end-to-end proof that promotion, the ring
// snapshot and the state document are data-race free against live scoring.
func TestConcurrentSlowRingScoring(t *testing.T) {
	schema := testSchema(t)
	_, ts := newTestServer(t, Config{
		Schema:        schema,
		Rules:         mustRules(t, schema, "amount >= 100"),
		SlowFloor:     time.Nanosecond,
		TraceCapacity: 256,
	})

	const workers, perWorker = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				var out scoreResponse
				if code, body := postJSON(t, ts.URL+"/v1/score",
					map[string]any{"transactions": []map[string]any{tx(150, 10, 0)}}, &out); code != http.StatusOK {
					t.Errorf("score: %d %s", code, body)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var slow debugSlowResponse
			if code := getJSON(t, ts.URL+"/v1/debug/slow", &slow); code != http.StatusOK {
				t.Errorf("concurrent /v1/debug/slow: %d", code)
				return
			}
			var st debugStateResponse
			if code := getJSON(t, ts.URL+"/v1/debug/state", &st); code != http.StatusOK {
				t.Errorf("concurrent /v1/debug/state: %d", code)
				return
			}
		}
	}()
	wg.Wait()
	<-done

	var slow debugSlowResponse
	if code := getJSON(t, ts.URL+"/v1/debug/slow", &slow); code != http.StatusOK {
		t.Fatalf("final /v1/debug/slow: %d", code)
	}
	if slow.PromotedTotal != workers*perWorker {
		t.Fatalf("promoted_total = %d, want %d (every request is over the 1ns floor)",
			slow.PromotedTotal, workers*perWorker)
	}
	for _, e := range slow.Entries {
		if e.Name != "request.score" {
			t.Fatalf("promoted root %q, want request.score", e.Name)
		}
		if e.StageTotalNS > e.DurNS {
			t.Fatalf("entry %d: stage_total_ns %d > dur_ns %d", e.Seq, e.StageTotalNS, e.DurNS)
		}
	}
}

// TestScoreLatencyIsStageSum: rudolf_score_latency_seconds observes, once
// per scored request, the total of the stage clock that fills
// rudolf_stage_duration_seconds — one clock, decode through write — so the
// latency sum equals the seven stage sums up to float rounding.
func TestScoreLatencyIsStageSum(t *testing.T) {
	schema := testSchema(t)
	s, _ := newTestServer(t, Config{Schema: schema, Rules: mustRules(t, schema, "amount >= 100")})
	const n = 20
	h := s.Handler()
	for i := 0; i < n; i++ {
		rec := httptest.NewRecorder()
		body := `{"transactions":[{"attrs":{"amount":150,"hour":3},"score":10},{"attrs":{"amount":50,"hour":4},"score":10}]}`
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/score", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("score: %d %s", rec.Code, rec.Body)
		}
	}
	lat, ok := s.Registry().FindHistogram("rudolf_score_latency_seconds")
	if !ok || lat.Count() != n {
		t.Fatalf("latency histogram %v: count %d, want %d", ok, lat.Count(), n)
	}
	var stages float64
	for st := stage(0); st < numStages; st++ {
		sh, ok := s.Registry().FindHistogram(`rudolf_stage_duration_seconds{stage="` + stageNames[st] + `"}`)
		if !ok {
			t.Fatalf("stage %s histogram missing", stageNames[st])
		}
		stages += sh.Sum()
	}
	if d := math.Abs(lat.Sum() - stages); d > 1e-9 {
		t.Fatalf("latency sum %.9fs, stage sums %.9fs: differ by %.3gs", lat.Sum(), stages, d)
	}
}
