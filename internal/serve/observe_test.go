package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/rulestats"
	"repro/internal/telemetry"
)

// TestScoreExplain pins the wire form of "explain": true — per-tuple matched
// rule indices and, for each rule that fired, per-condition pass/fail with
// exact margins against the published rule texts. Non-firing rules are not in
// the default explain response (that is explain_all's job, tested below).
func TestScoreExplain(t *testing.T) {
	schema := testSchema(t)
	_, ts := newTestServer(t, Config{Schema: schema, Rules: mustRules(t, schema, "amount >= 100", "hour <= 6 && score >= 50")})

	var resp struct {
		Version      int             `json:"version"`
		Flagged      []bool          `json:"flagged"`
		Explanations []txExplanation `json:"explanations"`
	}
	code, body := postJSON(t, ts.URL+"/v1/score", map[string]any{
		"explain":      true,
		"transactions": []map[string]any{tx(250, 12, 0), tx(50, 3, 80), tx(10, 22, 0)},
	}, &resp)
	if code != http.StatusOK {
		t.Fatalf("explain score = %d: %s", code, body)
	}
	if len(resp.Explanations) != 3 {
		t.Fatalf("explanations = %d, want 3", len(resp.Explanations))
	}

	// Tuple 0: amount 250 matches rule 0 only; margin to the lower bound is
	// 150 (domain upper bound 10000 is treated as non-binding only in margin
	// terms: min(250-100, 10000-250) = 150). Only the matched rule appears.
	e0 := resp.Explanations[0]
	if !e0.Flagged || len(e0.Matched) != 1 || e0.Matched[0] != 0 {
		t.Fatalf("tuple 0 matched = %+v", e0)
	}
	if len(e0.Rules) != 1 || e0.Rules[0].Rule != 0 || !e0.Rules[0].Matched {
		t.Fatalf("tuple 0 rules = %+v, want just matched rule 0", e0.Rules)
	}
	c := e0.Rules[0].Checks[0]
	if c.Attr != "amount" || c.Kind != "numeric" || !c.Pass || c.Margin != 150 {
		t.Fatalf("tuple 0 rule 0 check = %+v, want amount/numeric/pass/150", c)
	}
	if e0.Rules[0].Text == "" {
		t.Fatal("rule text missing from explanation")
	}

	// Tuple 1: hour 3 + score 80 matches rule 1 (hour margin 3, score margin
	// 30); rule 0 did not fire, so it has no entry in the default mode.
	e1 := resp.Explanations[1]
	if !e1.Flagged || len(e1.Matched) != 1 || e1.Matched[0] != 1 {
		t.Fatalf("tuple 1 matched = %+v", e1.Matched)
	}
	if len(e1.Rules) != 1 || e1.Rules[0].Rule != 1 {
		t.Fatalf("tuple 1 rules = %+v, want just matched rule 1", e1.Rules)
	}
	var hourCheck, scoreCheck *checkExplanation
	for i := range e1.Rules[0].Checks {
		switch e1.Rules[0].Checks[i].Attr {
		case "hour":
			hourCheck = &e1.Rules[0].Checks[i]
		case "score":
			scoreCheck = &e1.Rules[0].Checks[i]
		}
	}
	if hourCheck == nil || !hourCheck.Pass || hourCheck.Margin != 3 {
		t.Fatalf("tuple 1 hour check = %+v, want pass/3", hourCheck)
	}
	if scoreCheck == nil || scoreCheck.Kind != "score" || !scoreCheck.Pass || scoreCheck.Margin != 30 {
		t.Fatalf("tuple 1 score check = %+v, want score/pass/30", scoreCheck)
	}
	// The score check renders last.
	if last := e1.Rules[0].Checks[len(e1.Rules[0].Checks)-1]; last.Attr != "score" {
		t.Fatalf("score check must render last, got %+v", e1.Rules[0].Checks)
	}

	// Tuple 2 matches nothing: flagged false, matched empty but present, and
	// no per-rule breakdowns in the default mode.
	e2 := resp.Explanations[2]
	if e2.Flagged || e2.Matched == nil || len(e2.Matched) != 0 {
		t.Fatalf("tuple 2 = %+v, want unflagged with empty matched", e2)
	}
	if len(e2.Rules) != 0 {
		t.Fatalf("tuple 2 rules = %+v, want empty (nothing fired)", e2.Rules)
	}

	// Without explain, the response has no explanations key.
	var raw map[string]json.RawMessage
	if code, body := postJSON(t, ts.URL+"/v1/score", map[string]any{"transactions": []map[string]any{tx(250, 12, 0)}}, &raw); code != http.StatusOK {
		t.Fatalf("plain score = %d: %s", code, body)
	}
	if _, ok := raw["explanations"]; ok {
		t.Fatal("plain score response must not carry explanations")
	}
}

// TestScoreExplainAll pins "explain_all": true — the full per-rule table,
// including the margins of rules that did not fire (re-derived at encode
// time), index-aligned with the published set.
func TestScoreExplainAll(t *testing.T) {
	schema := testSchema(t)
	_, ts := newTestServer(t, Config{Schema: schema, Rules: mustRules(t, schema, "amount >= 100", "hour <= 6 && score >= 50")})

	var resp struct {
		Version      int             `json:"version"`
		Flagged      []bool          `json:"flagged"`
		Explanations []txExplanation `json:"explanations"`
	}
	code, body := postJSON(t, ts.URL+"/v1/score", map[string]any{
		"explain_all":  true,
		"transactions": []map[string]any{tx(250, 12, 0), tx(50, 3, 80)},
	}, &resp)
	if code != http.StatusOK {
		t.Fatalf("explain_all score = %d: %s", code, body)
	}
	if len(resp.Explanations) != 2 {
		t.Fatalf("explanations = %d, want 2", len(resp.Explanations))
	}

	// Both rules appear for every tuple, index-aligned.
	for ti, e := range resp.Explanations {
		if len(e.Rules) != 2 {
			t.Fatalf("tuple %d rules = %d, want 2 (full table)", ti, len(e.Rules))
		}
		for ri, re := range e.Rules {
			if re.Rule != ri {
				t.Fatalf("tuple %d rules[%d].rule = %d, want index-aligned", ti, ri, re.Rule)
			}
			if re.Text == "" {
				t.Fatalf("tuple %d rule %d text missing", ti, ri)
			}
		}
	}
	// Tuple 1 fails rule 0 by 50: the near-miss margin explain_all exists for.
	e1 := resp.Explanations[1]
	if e1.Rules[0].Matched {
		t.Fatalf("tuple 1 rule 0 = %+v, want not matched", e1.Rules[0])
	}
	if c := e1.Rules[0].Checks[0]; c.Pass || c.Margin != -50 {
		t.Fatalf("tuple 1 rule 0 check = %+v, want fail/-50", c)
	}
	if !e1.Rules[1].Matched {
		t.Fatalf("tuple 1 rule 1 = %+v, want matched", e1.Rules[1])
	}

	// explain_all and explain agree on the matched rules' breakdowns.
	var lazy struct {
		Explanations []txExplanation `json:"explanations"`
	}
	if code, body := postJSON(t, ts.URL+"/v1/score", map[string]any{
		"explain":      true,
		"transactions": []map[string]any{tx(50, 3, 80)},
	}, &lazy); code != http.StatusOK {
		t.Fatalf("explain score = %d: %s", code, body)
	}
	got := lazy.Explanations[0].Rules[0]
	want := e1.Rules[1]
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("explain vs explain_all matched-rule breakdown:\n got %+v\nwant %+v", got, want)
	}
}

// TestRuleHealthEndpoint drives traffic and feedback through the daemon and
// asserts the health readout: fire counts, shares, FP/TP joins, and the
// version-consistent ETag that resets on publish.
func TestRuleHealthEndpoint(t *testing.T) {
	schema := testSchema(t)
	s, ts := newTestServer(t, Config{Schema: schema, Rules: mustRules(t, schema, "amount >= 100", "hour <= 6")})

	// 4 tx: two first-match rule 0, one first-match rule 1, one unmatched.
	code, body := postJSON(t, ts.URL+"/v1/score", map[string]any{"transactions": []map[string]any{
		tx(500, 12, 0), tx(900, 3, 0), tx(50, 2, 0), tx(50, 12, 0),
	}}, nil)
	if code != http.StatusOK {
		t.Fatalf("score = %d: %s", code, body)
	}
	// Feedback: fraud captured by rule 0, legit captured by both rules.
	code, body = postJSON(t, ts.URL+"/v1/feedback", map[string]any{"transactions": []map[string]any{
		{"attrs": map[string]any{"amount": int64(600), "hour": int64(15)}, "score": 0, "label": "fraud"},
		{"attrs": map[string]any{"amount": int64(700), "hour": int64(2)}, "score": 0, "label": "legit"},
	}}, nil)
	if code != http.StatusOK {
		t.Fatalf("feedback = %d: %s", code, body)
	}

	resp, err := http.Get(ts.URL + "/v1/rules/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("health = %d", resp.StatusCode)
	}
	if got, want := resp.Header.Get("ETag"), versionETag(s.Version()); got != want {
		t.Fatalf("health ETag = %q, want %q (the published version)", got, want)
	}
	var health struct {
		Version int                    `json:"version"`
		TotalTx uint64                 `json:"total_scored"`
		Rules   []rulestats.RuleHealth `json:"rules"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Version != s.Version() || health.TotalTx != 4 || len(health.Rules) != 2 {
		t.Fatalf("health = %+v, want version %d / 4 tx / 2 rules", health, s.Version())
	}
	if health.Rules[0].Fires != 2 || health.Rules[1].Fires != 1 {
		t.Fatalf("fires = %d/%d, want 2/1 (first-match)", health.Rules[0].Fires, health.Rules[1].Fires)
	}
	if health.Rules[0].Share != 0.5 {
		t.Fatalf("rule 0 share = %v, want 0.5", health.Rules[0].Share)
	}
	if health.Rules[0].TP != 1 || health.Rules[0].FP != 1 || health.Rules[0].Precision != 0.5 {
		t.Fatalf("rule 0 tp/fp/precision = %d/%d/%v, want 1/1/0.5", health.Rules[0].TP, health.Rules[0].FP, health.Rules[0].Precision)
	}
	if health.Rules[1].TP != 0 || health.Rules[1].FP != 1 {
		t.Fatalf("rule 1 tp/fp = %d/%d, want 0/1", health.Rules[1].TP, health.Rules[1].FP)
	}
	if health.Rules[1].LastFiredAgo < 0 {
		t.Fatalf("rule 1 must have fired, last_fired_ago = %v", health.Rules[1].LastFiredAgo)
	}

	// If-None-Match with the current version answers 304.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/rules/health", nil)
	req.Header.Set("If-None-Match", versionETag(s.Version()))
	nm, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	nm.Body.Close()
	if nm.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional health = %d, want 304", nm.StatusCode)
	}

	// A publish resets health to the new version with zeroed counters.
	code, body = postJSON(t, ts.URL+"/v1/rules", map[string]any{"rules": []string{"amount >= 9000"}}, nil)
	if code != http.StatusOK {
		t.Fatalf("swap = %d: %s", code, body)
	}
	var after struct {
		Version int                    `json:"version"`
		TotalTx uint64                 `json:"total_scored"`
		Rules   []rulestats.RuleHealth `json:"rules"`
	}
	if got := getJSON(t, ts.URL+"/v1/rules/health", &after); got != http.StatusOK {
		t.Fatalf("health after swap = %d", got)
	}
	if after.Version != s.Version() || after.TotalTx != 0 || len(after.Rules) != 1 || after.Rules[0].Fires != 0 {
		t.Fatalf("health after swap = %+v, want fresh epoch for version %d", after, s.Version())
	}
}

// TestAuditEndpoint exercises the sampled decision ring end to end.
func TestAuditEndpoint(t *testing.T) {
	schema := testSchema(t)
	_, ts := newTestServer(t, Config{
		Schema: schema, Rules: mustRules(t, schema, "amount >= 100"),
		AuditSampleEvery: 1, AuditCapacity: 8,
	})
	for i := 0; i < 5; i++ {
		if code, body := postJSON(t, ts.URL+"/v1/score", map[string]any{"transactions": []map[string]any{tx(int64(90+10*i), 1, 7)}}, nil); code != http.StatusOK {
			t.Fatalf("score %d = %d: %s", i, code, body)
		}
	}
	var audit auditResponse
	if code := getJSON(t, ts.URL+"/v1/audit?n=3", &audit); code != http.StatusOK {
		t.Fatalf("audit = %d", code)
	}
	if audit.Retained != 5 || audit.Count != 3 || len(audit.Entries) != 3 {
		t.Fatalf("audit = retained %d count %d entries %d, want 5/3/3", audit.Retained, audit.Count, len(audit.Entries))
	}
	// Newest first: the last scored amount was 130 (flagged).
	newest := audit.Entries[0]
	if !newest.Flagged || newest.Rule != 0 || newest.Attrs["amount"] == "" || newest.Score != 7 {
		t.Fatalf("newest audit entry = %+v, want flagged rule-0 with rendered attrs", newest)
	}
	if newest.RequestID == "" || newest.Version == 0 || newest.Seq == 0 {
		t.Fatalf("audit entry missing provenance: %+v", newest)
	}
	// The first scored tx (amount 90) must be unflagged with rule -1.
	oldestResp := auditResponse{}
	if code := getJSON(t, ts.URL+"/v1/audit", &oldestResp); code != http.StatusOK {
		t.Fatalf("audit = %d", code)
	}
	last := oldestResp.Entries[len(oldestResp.Entries)-1]
	if last.Flagged || last.Rule != -1 {
		t.Fatalf("oldest audit entry = %+v, want unflagged rule -1", last)
	}
	if code := getJSON(t, ts.URL+"/v1/audit?n=bogus", nil); code != http.StatusBadRequest {
		t.Fatalf("bad n = %d, want 400", code)
	}
}

// TestPerRuleMetrics asserts the per-rule series on /metrics, including the
// drift/staleness gauges read at scrape time and the whole-batch
// latency + batch-size histograms.
func TestPerRuleMetrics(t *testing.T) {
	schema := testSchema(t)
	_, ts := newTestServer(t, Config{Schema: schema, Rules: mustRules(t, schema, "amount >= 100", "hour <= 6")})
	code, body := postJSON(t, ts.URL+"/v1/score", map[string]any{"transactions": []map[string]any{
		tx(500, 12, 0), tx(900, 3, 0), tx(50, 2, 0),
	}}, nil)
	if code != http.StatusOK {
		t.Fatalf("score = %d: %s", code, body)
	}
	code, body = postJSON(t, ts.URL+"/v1/feedback", map[string]any{"transactions": []map[string]any{
		{"attrs": map[string]any{"amount": int64(600), "hour": int64(15)}, "score": 0, "label": "fraud"},
	}}, nil)
	if code != http.StatusOK {
		t.Fatalf("feedback = %d: %s", code, body)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	page := readAll(t, resp)
	if v, ok := telemetry.ScrapeValue(page, `rudolf_rule_fires_total{rule="0"}`); !ok || v != 2 {
		t.Fatalf(`rule 0 fires = %v/%v, want 2`, v, ok)
	}
	if v, ok := telemetry.ScrapeValue(page, `rudolf_rule_fires_total{rule="1"}`); !ok || v != 1 {
		t.Fatalf(`rule 1 fires = %v/%v, want 1`, v, ok)
	}
	if v, ok := telemetry.ScrapeValue(page, `rudolf_rule_feedback_tp_total{rule="0"}`); !ok || v != 1 {
		t.Fatalf(`rule 0 tp = %v/%v, want 1`, v, ok)
	}
	if _, ok := telemetry.ScrapeValue(page, `rudolf_rule_last_fired_ago_seconds{rule="0"}`); !ok {
		t.Fatal("staleness gauge missing from scrape")
	}
	if _, ok := telemetry.ScrapeValue(page, `rudolf_rule_drift{rule="0"}`); !ok {
		t.Fatal("drift gauge missing from scrape")
	}
	// Whole-batch latency: one /v1/score request = one observation.
	lat, err := telemetry.ScrapeHistogram(strings.NewReader(page), "rudolf_score_latency_seconds")
	if err != nil {
		t.Fatal(err)
	}
	if lat.Total != 1 {
		t.Fatalf("latency observations = %d, want 1 per request", lat.Total)
	}
	size, err := telemetry.ScrapeHistogram(strings.NewReader(page), "rudolf_score_batch_size")
	if err != nil {
		t.Fatal(err)
	}
	if size.Total != 1 || size.Sum != 3 {
		t.Fatalf("batch size histogram = %d obs sum %v, want 1/3", size.Total, size.Sum)
	}
}

// TestObservabilityRace hammers scoring, feedback and publishes while other
// goroutines poll /v1/rules/health, /v1/audit and /metrics — the -race proof
// that the health plane never tears against the hot path.
func TestObservabilityRace(t *testing.T) {
	schema := testSchema(t)
	s, ts := newTestServer(t, Config{
		Schema: schema, Rules: mustRules(t, schema, "amount >= 100", "hour <= 6"),
		AuditSampleEvery: 2, AuditCapacity: 64,
	})
	const iters = 40
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				postJSON(t, ts.URL+"/v1/score", map[string]any{"explain": i%4 == 0, "transactions": []map[string]any{
					tx(int64(50+i*17%500), int64(i%24), int16(i%100)),
				}}, nil)
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			label := "fraud"
			if i%2 == 0 {
				label = "legit"
			}
			postJSON(t, ts.URL+"/v1/feedback", map[string]any{"transactions": []map[string]any{
				{"attrs": map[string]any{"amount": int64(200 + i), "hour": int64(i % 24)}, "score": 0, "label": label},
			}}, nil)
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters/4; i++ {
			postJSON(t, ts.URL+"/v1/rules", map[string]any{"rules": []string{
				fmt.Sprintf("amount >= %d", 100+i), "hour <= 6",
			}}, nil)
		}
	}()
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				var health ruleHealthResponse
				getJSON(t, ts.URL+"/v1/rules/health", &health)
				var audit auditResponse
				getJSON(t, ts.URL+"/v1/audit?n=16", &audit)
				if resp, err := http.Get(ts.URL + "/metrics"); err == nil {
					readAll(t, resp)
				}
			}
		}()
	}
	wg.Wait()
	// Post-race coherence: the health version matches the published version.
	var health ruleHealthResponse
	if code := getJSON(t, ts.URL+"/v1/rules/health", &health); code != http.StatusOK {
		t.Fatalf("health = %d", code)
	}
	if health.Version != s.Version() {
		t.Fatalf("health version %d != published %d", health.Version, s.Version())
	}
	if len(health.Rules) != s.Rules().Len() {
		t.Fatalf("health rules %d != published %d", len(health.Rules), s.Rules().Len())
	}
}
