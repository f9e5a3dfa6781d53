package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/expert"
	"repro/internal/order"
	"repro/internal/relation"
	"repro/internal/rules"
	"repro/internal/telemetry"
)

// testSchema is a two-attribute numeric schema: amount in [0, 10000] and
// hour in [0, 23].
func testSchema(t testing.TB) *relation.Schema {
	t.Helper()
	return relation.MustSchema(
		relation.Attribute{Name: "amount", Kind: relation.Numeric, Domain: order.NewDomain(0, 10000)},
		relation.Attribute{Name: "hour", Kind: relation.Numeric, Domain: order.NewDomain(0, 23)},
	)
}

func mustRules(t testing.TB, s *relation.Schema, texts ...string) *rules.Set {
	t.Helper()
	rs := rules.NewSet()
	for _, text := range texts {
		r, err := rules.Parse(s, text)
		if err != nil {
			t.Fatalf("parsing %q: %v", text, err)
		}
		rs.Add(r)
	}
	return rs
}

func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { s.Close() }) //nolint:errcheck // test teardown; Close is idempotent
	return s, ts
}

func postJSON(t testing.TB, url string, body any, out any) (int, string) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("unmarshaling %q: %v", data, err)
		}
	}
	return resp.StatusCode, string(data)
}

func getJSON(t testing.TB, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("unmarshaling %q: %v", data, err)
		}
	}
	return resp.StatusCode
}

func tx(amount, hour int64, score int16) map[string]any {
	return map[string]any{
		"attrs": map[string]any{"amount": amount, "hour": hour},
		"score": score,
	}
}

func TestScoreSingleAndBatch(t *testing.T) {
	schema := testSchema(t)
	_, ts := newTestServer(t, Config{Schema: schema, Rules: mustRules(t, schema, "amount >= 100")})

	// Single-transaction shorthand.
	var resp scoreResponse
	code, body := postJSON(t, ts.URL+"/v1/score",
		map[string]any{"attrs": map[string]any{"amount": 150, "hour": 3}, "score": 10}, &resp)
	if code != http.StatusOK {
		t.Fatalf("single score: %d %s", code, body)
	}
	if resp.Version != 1 || resp.Count != 1 || resp.Matched != 1 || !resp.Flagged[0] {
		t.Fatalf("single score response: %+v", resp)
	}

	// Batch with mixed verdicts; string-form values parse too.
	code, body = postJSON(t, ts.URL+"/v1/score", map[string]any{
		"transactions": []any{
			tx(150, 3, 10),
			tx(50, 3, 10),
			map[string]any{"attrs": map[string]any{"amount": "9999", "hour": "0"}, "score": 1000},
		},
	}, &resp)
	if code != http.StatusOK {
		t.Fatalf("batch score: %d %s", code, body)
	}
	want := []bool{true, false, true}
	if resp.Count != 3 || resp.Matched != 2 {
		t.Fatalf("batch response: %+v", resp)
	}
	for i, w := range want {
		if resp.Flagged[i] != w {
			t.Fatalf("flagged[%d] = %v, want %v (%+v)", i, resp.Flagged[i], w, resp)
		}
	}
}

func TestScoreRejectsMalformed(t *testing.T) {
	schema := testSchema(t)
	_, ts := newTestServer(t, Config{Schema: schema, Rules: rules.NewSet(), MaxBatch: 2})

	cases := []struct {
		name string
		body any
		code int
	}{
		{"empty", map[string]any{}, http.StatusBadRequest},
		{"missing attr", map[string]any{"attrs": map[string]any{"amount": 1}}, http.StatusBadRequest},
		{"unknown attr", map[string]any{"attrs": map[string]any{"amount": 1, "hour": 2, "bogus": 3}}, http.StatusBadRequest},
		{"out of domain", map[string]any{"attrs": map[string]any{"amount": 1, "hour": 99}}, http.StatusBadRequest},
		{"bad score", map[string]any{"attrs": map[string]any{"amount": 1, "hour": 2}, "score": 9999}, http.StatusBadRequest},
		{"batch too large", map[string]any{"transactions": []any{tx(1, 1, 1), tx(2, 2, 2), tx(3, 3, 3)}}, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		code, body := postJSON(t, ts.URL+"/v1/score", tc.body, nil)
		if code != tc.code {
			t.Errorf("%s: code %d (want %d): %s", tc.name, code, tc.code, body)
		}
	}

	// GET is not allowed.
	if code := getJSON(t, ts.URL+"/v1/score", nil); code != http.StatusMethodNotAllowed {
		t.Errorf("GET /score = %d, want 405", code)
	}
}

func TestBodyLimit(t *testing.T) {
	schema := testSchema(t)
	_, ts := newTestServer(t, Config{Schema: schema, Rules: rules.NewSet(), MaxBodyBytes: 128})
	big := strings.Repeat(" ", 1024)
	resp, err := http.Post(ts.URL+"/v1/score", "application/json", strings.NewReader(`{"pad":"`+big+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize body: %d, want 413", resp.StatusCode)
	}
}

func TestRulesGetAndSwap(t *testing.T) {
	schema := testSchema(t)
	s, ts := newTestServer(t, Config{Schema: schema, Rules: mustRules(t, schema, "amount >= 100")})

	var got rulesResponse
	if code := getJSON(t, ts.URL+"/v1/rules", &got); code != http.StatusOK {
		t.Fatalf("GET /rules: %d", code)
	}
	if got.Version != 1 || got.Count != 1 || len(got.Rules) != 1 {
		t.Fatalf("GET /rules: %+v", got)
	}

	// JSON swap.
	swapsBefore, _ := telemetry.ScrapeValue(getMetrics(t, ts.URL), "rudolf_rule_swaps_total")
	var swapped rulesResponse
	code, body := postJSON(t, ts.URL+"/v1/rules",
		rulesSwapRequest{Rules: []string{"amount <= 50", "hour in [0,6]"}}, &swapped)
	if code != http.StatusOK {
		t.Fatalf("POST /rules: %d %s", code, body)
	}
	if swapped.Version != 2 || swapped.Count != 2 {
		t.Fatalf("swap response: %+v", swapped)
	}
	if s.Version() != 2 || s.Rules().Len() != 2 {
		t.Fatalf("server state: version %d, %d rules", s.Version(), s.Rules().Len())
	}
	// /metrics moved with the publish.
	page := getMetrics(t, ts.URL)
	if v, ok := telemetry.ScrapeValue(page, "rudolf_rules_version"); !ok || v != 2 {
		t.Fatalf("rudolf_rules_version = %v, %v after the swap, want 2", v, ok)
	}
	if v, ok := telemetry.ScrapeValue(page, "rudolf_rule_swaps_total"); !ok || v <= swapsBefore {
		t.Fatalf("rudolf_rule_swaps_total = %v, %v after the swap, want > %v", v, ok, swapsBefore)
	}

	// Bad rule text is rejected and nothing is published.
	code, body = postJSON(t, ts.URL+"/v1/rules", rulesSwapRequest{Rules: []string{"no such attr >= 5"}}, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("bad rule: %d %s", code, body)
	}
	if s.Version() != 2 {
		t.Fatalf("bad rule bumped version to %d", s.Version())
	}

	// text/plain rule-file swap.
	resp, err := http.Post(ts.URL+"/v1/rules", "text/plain",
		strings.NewReader("# refined by hand\namount >= 200\n\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("text swap: %d %s", resp.StatusCode, raw)
	}
	if s.Version() != 3 || s.Rules().Len() != 1 {
		t.Fatalf("after text swap: version %d, %d rules", s.Version(), s.Rules().Len())
	}
	// Every publish is a history version.
	if s.History().Len() != 3 {
		t.Fatalf("history has %d versions, want 3", s.History().Len())
	}
}

func TestFeedbackRefineStats(t *testing.T) {
	schema := testSchema(t)
	s, ts := newTestServer(t, Config{Schema: schema, Rules: mustRules(t, schema, "amount >= 100")})

	// Refine before any feedback is a conflict.
	if code, body := postJSON(t, ts.URL+"/v1/refine", nil, nil); code != http.StatusConflict {
		t.Fatalf("refine without feedback: %d %s", code, body)
	}

	fb := func(amount int64, label string) map[string]any {
		return map[string]any{
			"attrs": map[string]any{"amount": amount, "hour": 12},
			"score": 500,
			"label": label,
		}
	}
	var fresp feedbackResponse
	code, body := postJSON(t, ts.URL+"/v1/feedback", map[string]any{
		"transactions": []any{
			fb(150, "fraud"),    // already captured
			fb(90, "fraud"),     // missed: refinement should reach for it
			fb(20, "legit"),     // not captured
			fb(30, "unlabeled"), // context traffic
		},
	}, &fresp)
	if code != http.StatusOK {
		t.Fatalf("feedback: %d %s", code, body)
	}
	if fresp.Added != 4 || fresp.Total != 4 {
		t.Fatalf("feedback response: %+v", fresp)
	}
	wantCaptured := []bool{true, false, false, false}
	for i, w := range wantCaptured {
		if fresp.Captured[i] != w {
			t.Fatalf("captured[%d] = %v, want %v", i, fresp.Captured[i], w)
		}
	}

	// A label outside the vocabulary is rejected wholesale.
	code, _ = postJSON(t, ts.URL+"/v1/feedback", map[string]any{
		"transactions": []any{fb(10, "dubious")},
	}, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("bad label: %d", code)
	}
	var st statsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	if st.Feedback != 4 || st.Fraud != 2 || st.FraudCaptured != 1 || st.Legit != 1 || st.Unlabeled != 1 {
		t.Fatalf("stats: %+v", st)
	}

	var rresp refineResponse
	code, body = postJSON(t, ts.URL+"/v1/refine", refineRequest{MaxRounds: 4}, &rresp)
	if code != http.StatusOK {
		t.Fatalf("refine: %d %s", code, body)
	}
	if rresp.OldVersion != 1 || rresp.Version != 2 {
		t.Fatalf("refine versions: %+v", rresp)
	}
	if rresp.FraudTotal != 2 {
		t.Fatalf("refine stats: %+v", rresp)
	}
	if s.Version() != 2 {
		t.Fatalf("server version after refine: %d", s.Version())
	}
	// The refined set captures at least as many frauds as before.
	if rresp.FraudCaptured < 1 {
		t.Fatalf("refined rules lost frauds: %+v", rresp)
	}
}

// slowExpert accepts everything, but holds every generalization review
// until release is closed — an analyst who answers after the deadline. When
// entered is set it is closed as the first review starts: from then on the
// refinement holds s.mu.
type slowExpert struct {
	expert.AutoAccept
	release chan struct{}
	entered chan struct{}
	once    sync.Once
}

func (e *slowExpert) ReviewGeneralization(p *core.GenProposal) core.GenDecision {
	if e.entered != nil {
		e.once.Do(func() { close(e.entered) })
	}
	<-e.release
	return e.AutoAccept.ReviewGeneralization(p)
}

// TestTimedOutRefineDoesNotPublish: a refinement whose deadline passes while
// its expert deliberates stops at its next expert query and answers 503
// timeout; it must not publish — the client was told the request failed. The
// rule set and its ETag stay put, and the next refinement works from
// version 1.
func TestTimedOutRefineDoesNotPublish(t *testing.T) {
	schema := testSchema(t)
	slow := &slowExpert{release: make(chan struct{})}
	s, ts := newTestServer(t, Config{Schema: schema, Rules: mustRules(t, schema, "amount >= 100"),
		Expert: slow, RefineTimeout: 20 * time.Millisecond})
	code, body := postJSON(t, ts.URL+"/v1/feedback", map[string]any{"transactions": []any{
		map[string]any{"attrs": map[string]any{"amount": 90, "hour": 12}, "score": 500, "label": "fraud"},
	}}, nil)
	if code != http.StatusOK {
		t.Fatalf("feedback: %d %s", code, body)
	}
	rulesETag := func() string {
		resp, err := http.Get(ts.URL + "/v1/rules")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.Header.Get("ETag")
	}
	before := rulesETag()

	// The handler runs on the request goroutine, so the expert answers — past
	// the deadline — on a timer rather than after the 503.
	time.AfterFunc(100*time.Millisecond, func() { close(slow.release) })
	code, body = postJSON(t, ts.URL+"/v1/refine", nil, nil)
	if code != http.StatusServiceUnavailable || !strings.Contains(body, `"code":"timeout"`) {
		t.Fatalf("refine past its deadline: %d %s, want the 503 timeout envelope", code, body)
	}
	if after := rulesETag(); after != before || s.Version() != 1 {
		t.Fatalf("a timed-out refine published: ETag %s -> %s, version %d", before, after, s.Version())
	}

	var ok refineResponse
	if code, body = postJSON(t, ts.URL+"/v1/refine", nil, &ok); code != http.StatusOK {
		t.Fatalf("refine after the timed-out one: %d %s", code, body)
	}
	if ok.OldVersion != 1 || ok.Version != 2 || ok.FraudCaptured != 1 {
		t.Fatalf("refine after the timed-out one: %+v", ok)
	}
}

// queueBehindRefine boots a server whose refinement blocks in its expert,
// starts one (RefineTimeout is long: it will publish version 2 once
// released) and returns when it holds s.mu. The returned func releases the
// expert and waits for the refine's 200.
func queueBehindRefine(t *testing.T, cfg Config) (*Server, *httptest.Server, func()) {
	t.Helper()
	schema := testSchema(t)
	slow := &slowExpert{release: make(chan struct{}), entered: make(chan struct{})}
	cfg.Schema, cfg.Rules, cfg.Expert, cfg.RefineTimeout = schema, mustRules(t, schema, "amount >= 100"), slow, time.Minute
	s, ts := newTestServer(t, cfg)
	code, body := postJSON(t, ts.URL+"/v1/feedback", map[string]any{"transactions": []any{
		map[string]any{"attrs": map[string]any{"amount": 90, "hour": 12}, "score": 500, "label": "fraud"},
	}}, nil)
	if code != http.StatusOK {
		t.Fatalf("feedback: %d %s", code, body)
	}
	refined := make(chan string, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/refine", "application/json", nil)
		if err != nil {
			refined <- err.Error()
			return
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		refined <- fmt.Sprintf("%d %s", resp.StatusCode, raw)
	}()
	<-slow.entered
	return s, ts, func() {
		close(slow.release)
		if got := <-refined; !strings.HasPrefix(got, "200 ") {
			t.Fatalf("refine: %s", got)
		}
	}
}

// waitAbandoned waits until the handler of the timed-out request on route
// (request.<route> span, answered 503) has returned: instrument ends the span
// as the handler returns.
func waitAbandoned(t *testing.T, s *Server, route string) {
	t.Helper()
	waitFor(t, "the timed-out "+route+" handler to return", func() bool {
		for _, rec := range s.Tracer().Snapshot() {
			for _, a := range rec.Attrs[:rec.NAttrs] {
				if rec.Name == "request."+route && a.Key == "code" && a.Value() == int64(http.StatusServiceUnavailable) {
					return true
				}
			}
		}
		return false
	})
}

// TestTimedOutFeedbackDoesNotCommit: a feedback POST that queues for s.mu
// behind a refinement longer than FeedbackTimeout is answered 503 timeout,
// and it must not append the batch behind that answer once the lock frees —
// a client retry would append it twice.
func TestTimedOutFeedbackDoesNotCommit(t *testing.T) {
	s, ts, finishRefine := queueBehindRefine(t, Config{FeedbackTimeout: 50 * time.Millisecond})
	code, body := postJSON(t, ts.URL+"/v1/feedback", map[string]any{"transactions": []any{
		map[string]any{"attrs": map[string]any{"amount": 20, "hour": 3}, "score": 10, "label": "legit"},
	}}, nil)
	if code != http.StatusServiceUnavailable || !strings.Contains(body, `"code":"timeout"`) {
		t.Fatalf("feedback queued behind a refine: %d %s, want the 503 timeout envelope", code, body)
	}
	finishRefine()
	waitAbandoned(t, s, "feedback")
	resp, err := http.Get(ts.URL + "/v1/rules")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if n, etag, v := s.feedbackLen(), resp.Header.Get("ETag"), s.Version(); n != 1 || etag != `"2"` || v != 2 {
		t.Fatalf("after a timed-out feedback: %d feedback tx, ETag %s, version %d; want 1, \"2\" (the refine's), 2", n, etag, v)
	}
}

// TestTimedOutPublishDoesNotCommit: the same rule for POST /v1/rules — a
// publish that timed out while queued behind a refinement is not installed
// once the lock frees; the refinement's version stays the published one.
func TestTimedOutPublishDoesNotCommit(t *testing.T) {
	s, ts, finishRefine := queueBehindRefine(t, Config{SwapTimeout: 50 * time.Millisecond})
	code, body := postJSON(t, ts.URL+"/v1/rules", map[string]any{"rules": []string{"hour <= 6"}}, nil)
	if code != http.StatusServiceUnavailable || !strings.Contains(body, `"code":"timeout"`) {
		t.Fatalf("publish queued behind a refine: %d %s, want the 503 timeout envelope", code, body)
	}
	finishRefine()
	waitAbandoned(t, s, "rules")
	resp, err := http.Get(ts.URL + "/v1/rules")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if n, etag, v := s.feedbackLen(), resp.Header.Get("ETag"), s.Version(); n != 1 || etag != `"2"` || v != 2 {
		t.Fatalf("after a timed-out publish: %d feedback tx, ETag %s, version %d; want 1, \"2\" (the refine's), 2", n, etag, v)
	}
	if got := s.Rules().Format(s.schema); strings.Contains(got, "hour <= 6") {
		t.Fatalf("the timed-out publish's rules were installed:\n%s", got)
	}
}

func TestHealthReadyAndDrain(t *testing.T) {
	schema := testSchema(t)
	s, ts := newTestServer(t, Config{Schema: schema, Rules: rules.NewSet()})
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	if code := getJSON(t, ts.URL+"/readyz", nil); code != http.StatusOK {
		t.Fatalf("readyz: %d", code)
	}
	s.SetDraining(true)
	if code := getJSON(t, ts.URL+"/readyz", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz: %d, want 503", code)
	}
	s.SetDraining(false)
	if code := getJSON(t, ts.URL+"/readyz", nil); code != http.StatusOK {
		t.Fatalf("readyz after drain cleared: %d", code)
	}
}

func TestServeGracefulShutdown(t *testing.T) {
	schema := testSchema(t)
	s, err := New(Config{Schema: schema, Rules: rules.NewSet(), DrainTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, ln) }()

	url := "http://" + ln.Addr().String()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never came up: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not drain within 5s")
	}
}

func TestMetricsEndpoint(t *testing.T) {
	schema := testSchema(t)
	_, ts := newTestServer(t, Config{Schema: schema, Rules: mustRules(t, schema, "amount >= 100")})

	for i := 0; i < 3; i++ {
		if code, body := postJSON(t, ts.URL+"/v1/score", tx(150, 3, 10), nil); code != http.StatusOK {
			t.Fatalf("score: %d %s", code, body)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	page := string(raw)
	if v, ok := telemetry.ScrapeValue(page, "rudolf_score_tx_total"); !ok || v != 3 {
		t.Fatalf("rudolf_score_tx_total = %v, %v (want 3)\n%s", v, ok, page)
	}
	if v, ok := telemetry.ScrapeValue(page, "rudolf_rules_version"); !ok || v != 1 {
		t.Fatalf("rudolf_rules_version = %v, %v (want 1)", v, ok)
	}
	if v, ok := telemetry.ScrapeValue(page, `rudolf_http_requests_total{path="/v1/score",code="200"}`); !ok || v != 3 {
		t.Fatalf("request counter = %v, %v (want 3)", v, ok)
	}
	h, err := telemetry.ScrapeHistogram(strings.NewReader(page), "rudolf_score_latency_seconds")
	if err != nil {
		t.Fatal(err)
	}
	if h.Total != 3 {
		t.Fatalf("latency count = %d, want 3", h.Total)
	}
	if p99 := h.Quantile(0.99); p99 <= 0 {
		t.Fatalf("p99 = %v, want > 0", p99)
	}
}

func TestSchemaEndpoint(t *testing.T) {
	schema := testSchema(t)
	_, ts := newTestServer(t, Config{Schema: schema, Rules: rules.NewSet()})
	resp, err := http.Get(ts.URL + "/v1/schema")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := relation.ReadSchemaJSON(resp.Body)
	if err != nil {
		t.Fatalf("served schema does not round-trip: %v", err)
	}
	if got.Arity() != schema.Arity() {
		t.Fatalf("round-tripped arity %d, want %d", got.Arity(), schema.Arity())
	}
}

// TestHotSwapRace is the torn-read check: scorer goroutines hammer /score
// with batches of one probe transaction repeated, while a swapper alternates
// the published rule set between one that flags the probe (odd versions) and
// one that does not (even versions). Every response must be internally
// consistent (all verdicts in a batch equal — one version per response) and
// externally consistent (the verdicts match the version the response
// reports). Meanwhile one client posts fraud-labelled probes as feedback;
// once each non-flagging version's predecessor has drained, that version's
// /v1/rules/health must show no fires and no TP — a batch or a feedback join
// books into the version that evaluated it. Run under -race this also proves
// the swap path publishes safely.
func TestHotSwapRace(t *testing.T) {
	schema := testSchema(t)
	// Version 1 (initial) flags the probe; every swap alternates.
	flagging := "amount >= 100"
	nonFlagging := "amount <= 50"
	_, ts := newTestServer(t, Config{Schema: schema, Rules: mustRules(t, schema, flagging)})

	const (
		scorers = 4
		swaps   = 60
		batch   = 16
	)
	probeBatch := make([]any, batch)
	for i := range probeBatch {
		probeBatch[i] = tx(150, 3, 10)
	}
	body, err := json.Marshal(map[string]any{"transactions": probeBatch})
	if err != nil {
		t.Fatal(err)
	}
	fraud := tx(150, 3, 10)
	fraud["label"] = "fraud"
	feedbackBody, err := json.Marshal(map[string]any{"transactions": []any{fraud}})
	if err != nil {
		t.Fatal(err)
	}
	post := func(path string, body []byte, out any) error {
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s: status %d", path, resp.StatusCode)
		}
		return json.NewDecoder(resp.Body).Decode(out)
	}

	var wg sync.WaitGroup
	errs := make(chan error, scorers+2)
	// seen[c] is the newest version client c (the scorers, then one
	// feedback poster) has had an answer under; a finished client reports
	// MaxInt64. An answer under v means everything c sent earlier has been
	// recorded, so once every client has seen v nothing evaluated under an
	// older version is still in flight. The clients run until the last swap.
	seen := make([]atomic.Int64, scorers+1)
	var swapsDone atomic.Bool

	wg.Add(1)
	go func() { // swapper
		defer wg.Done()
		defer swapsDone.Store(true)
		for i := 0; i < swaps; i++ {
			text := nonFlagging // publishes as version 2, 4, ...
			if i%2 == 1 {
				text = flagging // version 3, 5, ...
			}
			raw, _ := json.Marshal(rulesSwapRequest{Rules: []string{text}})
			var got rulesResponse
			if err := post("/v1/rules", raw, &got); err != nil {
				errs <- fmt.Errorf("swap %d: %v", i, err)
				return
			}
			// Version assignment is serialized under the server mutex, so
			// the single swapper sees consecutive versions: initial 1, then
			// 2, 3, ... — version v flags the probe iff v is odd.
			if got.Version != i+2 {
				errs <- fmt.Errorf("swap %d got version %d, want %d", i, got.Version, i+2)
				return
			}
			// Every version serves traffic before the next swap, so the
			// flagging one always has requests in flight at the swap.
			for c := range seen {
				for seen[c].Load() < int64(got.Version) {
					time.Sleep(50 * time.Microsecond)
				}
			}
			if text == flagging {
				continue
			}
			// The never-matching version's health must hold none of the
			// fires or fraud captures its flagging predecessor evaluated,
			// however late those requests recorded them.
			resp, err := http.Get(ts.URL + "/v1/rules/health")
			if err != nil {
				errs <- err
				return
			}
			var h ruleHealthResponse
			err = json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
			if err != nil || h.Version != got.Version || len(h.Rules) != 1 {
				errs <- fmt.Errorf("health after publishing v%d: %+v (%v)", got.Version, h, err)
				return
			}
			if r := h.Rules[0]; r.Fires != 0 || r.TP != 0 {
				errs <- fmt.Errorf("version %d never matches the probe, but its health shows %d fires and %d TP", got.Version, r.Fires, r.TP)
				return
			}
		}
	}()

	wg.Add(1)
	go func() { // feedback poster: fraud-labelled probes for the whole run
		defer wg.Done()
		defer seen[scorers].Store(math.MaxInt64)
		for !swapsDone.Load() {
			var got feedbackResponse
			if err := post("/v1/feedback", feedbackBody, &got); err != nil {
				errs <- err
				return
			}
			seen[scorers].Store(int64(got.Version))
		}
	}()

	for g := 0; g < scorers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer seen[g].Store(math.MaxInt64)
			for !swapsDone.Load() {
				var got scoreResponse
				if err := post("/v1/score", body, &got); err != nil {
					errs <- err
					return
				}
				seen[g].Store(int64(got.Version))
				if got.Count != batch || len(got.Flagged) != batch {
					errs <- fmt.Errorf("short response: %+v", got)
					return
				}
				wantFlag := got.Version%2 == 1
				for k, f := range got.Flagged {
					if f != got.Flagged[0] {
						errs <- fmt.Errorf("torn batch: verdict %d disagrees within one response (version %d)", k, got.Version)
						return
					}
					if f != wantFlag {
						errs <- fmt.Errorf("version %d reported flagged=%v, want %v", got.Version, f, wantFlag)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
