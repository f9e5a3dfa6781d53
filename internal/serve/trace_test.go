package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/telemetry"
)

// refineViaHTTP pushes a labeled feedback batch and runs one /refine,
// returning the refine response. The batch contains a missed fraud (forcing
// a generalization and thus expert spans) plus a captured legitimate.
func refineViaHTTP(t *testing.T, ts string) (resp struct {
	RequestID string `json:"request_id"`
	Version   int    `json:"version"`
}) {
	t.Helper()
	fb := map[string]any{"transactions": []map[string]any{
		{"attrs": map[string]any{"amount": int64(90), "hour": int64(3)}, "score": int16(0), "label": "fraud"},
		{"attrs": map[string]any{"amount": int64(150), "hour": int64(12)}, "score": int16(0), "label": "legit"},
		{"attrs": map[string]any{"amount": int64(60), "hour": int64(9)}, "score": int16(0), "label": "unlabeled"},
	}}
	if code, body := postJSON(t, ts+"/v1/feedback", fb, nil); code != http.StatusOK {
		t.Fatalf("feedback: %d %s", code, body)
	}
	if code, body := postJSON(t, ts+"/v1/refine", map[string]any{}, &resp); code != http.StatusOK {
		t.Fatalf("refine: %d %s", code, body)
	}
	return resp
}

// TestRequestIDEchoed checks every JSON endpoint echoes a request id in both
// the X-Request-Id header and the request_id body field, and that ids are
// distinct across requests.
func TestRequestIDEchoed(t *testing.T) {
	schema := testSchema(t)
	_, ts := newTestServer(t, Config{Schema: schema, Rules: mustRules(t, schema, "amount >= 100")})

	var seen []string
	for i := 0; i < 2; i++ {
		var out scoreResponse
		raw, _ := json.Marshal(map[string]any{"transactions": []map[string]any{tx(150, 10, 0)}})
		resp, err := http.Post(ts.URL+"/v1/score", "application/json", strings.NewReader(string(raw)))
		if err != nil {
			t.Fatal(err)
		}
		hdr := resp.Header.Get("X-Request-Id")
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatalf("bad response %q: %v", data, err)
		}
		if out.RequestID == "" || out.RequestID != hdr {
			t.Fatalf("request_id %q != X-Request-Id %q", out.RequestID, hdr)
		}
		seen = append(seen, out.RequestID)
	}
	if seen[0] == seen[1] {
		t.Fatalf("request ids not distinct: %v", seen)
	}

	var rr rulesResponse
	if code := getJSON(t, ts.URL+"/v1/rules", &rr); code != http.StatusOK || rr.RequestID == "" {
		t.Fatalf("GET /rules code %d request_id %q", code, rr.RequestID)
	}
	var sr statsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &sr); code != http.StatusOK || sr.RequestID == "" {
		t.Fatalf("GET /stats code %d request_id %q", code, sr.RequestID)
	}
}

// TestTraceEndpointAfterRefine drives a refinement through the HTTP surface
// and checks GET /trace (both formats) returns well-formed JSON containing
// the refinement span tree correlated to the refine request id.
func TestTraceEndpointAfterRefine(t *testing.T) {
	schema := testSchema(t)
	_, ts := newTestServer(t, Config{Schema: schema, Rules: mustRules(t, schema, "amount >= 100")})
	ref := refineViaHTTP(t, ts.URL)
	if ref.RequestID == "" {
		t.Fatal("refine response carries no request_id")
	}

	// Chrome format: one JSON document with traceEvents.
	resp, err := http.Get(ts.URL + "/v1/trace")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("GET /trace is not valid JSON: %v", err)
	}
	names := map[string]int{}
	refineReqSeen := false
	for _, ev := range doc.TraceEvents {
		names[ev.Name]++
		if ev.Name == "request.refine" && ev.Args["id"] == ref.RequestID {
			refineReqSeen = true
		}
	}
	for _, want := range []string{"request.refine", "session.refine", "refine.round", "expert.review_generalization", "capture.bind"} {
		if names[want] == 0 {
			t.Errorf("trace has no %q span (names: %v)", want, names)
		}
	}
	if !refineReqSeen {
		t.Errorf("no request.refine span carries the echoed request id %q", ref.RequestID)
	}

	// JSONL format: every line parses.
	resp, err = http.Get(ts.URL + "/v1/trace?format=jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	lines := 0
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		lines++
	}
	if lines == 0 {
		t.Fatal("JSONL trace is empty")
	}

	if code := getJSON(t, ts.URL+"/v1/trace?format=nope", nil); code != http.StatusBadRequest {
		t.Fatalf("unknown format code = %d, want 400", code)
	}
}

// TestRefinementMetricsSeries checks the new observability series appear on
// /metrics after a refinement: the per-round duration histogram, the expert
// query counters and the per-caller capture-cache counters.
func TestRefinementMetricsSeries(t *testing.T) {
	schema := testSchema(t)
	reg := telemetry.NewRegistry()
	_, ts := newTestServer(t, Config{Schema: schema, Rules: mustRules(t, schema, "amount >= 100"), Registry: reg})
	refineViaHTTP(t, ts.URL)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	body := string(page)
	for _, want := range []string{
		"rudolf_refine_round_duration_seconds_count",
		`rudolf_expert_queries_total{kind="generalization"}`,
		`rudolf_capture_cache_hits_total{caller="serve"}`,
		`rudolf_capture_cache_misses_total{caller="refine"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The round-duration histogram must have observed at least one round.
	h, err := telemetry.ScrapeHistogram(strings.NewReader(body), "rudolf_refine_round_duration_seconds")
	if err != nil {
		t.Fatalf("scraping round-duration histogram: %v", err)
	}
	if h.Total == 0 {
		t.Error("rudolf_refine_round_duration_seconds observed no rounds")
	}
	// Expert queries were actually counted (the feedback forces at least one
	// generalization proposal).
	if !strings.Contains(body, `rudolf_expert_queries_total{kind="generalization"} `) {
		t.Error("no generalization expert queries counted")
	}
}

// TestConcurrentScoreTracing hammers /score from many goroutines while
// /trace and /metrics are polled — the serve worker-pool shape emitting
// spans into one tracer. Run with -race.
func TestConcurrentScoreTracing(t *testing.T) {
	schema := testSchema(t)
	_, ts := newTestServer(t, Config{Schema: schema, Rules: mustRules(t, schema, "amount >= 100"), TraceCapacity: 256})

	const workers, perWorker = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				var out scoreResponse
				code, body := postJSON(t, ts.URL+"/v1/score",
					map[string]any{"transactions": []map[string]any{tx(150, 10, 0)}}, &out)
				if code != http.StatusOK {
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
			resp, err := http.Get(ts.URL + "/v1/trace")
			if err != nil {
				t.Error(err)
				return
			}
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if !json.Valid(data) {
				t.Error("concurrent /trace returned invalid JSON")
				return
			}
		}
	}()
	wg.Wait()
	<-done

	resp, err := http.Get(ts.URL + "/v1/trace?format=jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	scoreSpans := 0
	for sc.Scan() {
		var m struct {
			Name string `json:"name"`
		}
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad JSONL line: %v", err)
		}
		if m.Name == "request.score" {
			scoreSpans++
		}
	}
	if scoreSpans == 0 {
		t.Fatal("no request.score spans recorded")
	}
	fmt.Fprintln(io.Discard, scoreSpans)
}
