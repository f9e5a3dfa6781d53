package serve

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"testing"
)

// pageSeries is one series line of a /metrics page with the family its
// # TYPE header declared.
type pageSeries struct {
	family, kind, name string
	value              float64
}

// parsePage reads every series line of a /metrics page. WriteTo renders
// each family's series right after its # TYPE header, so the last header
// names the family of the lines that follow it.
func parsePage(t *testing.T, page string) []pageSeries {
	t.Helper()
	var out []pageSeries
	var family, kind string
	for _, line := range strings.Split(page, "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			family, kind = f[2], f[3]
			continue
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("unparsable series line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("series line %q: %v", line, err)
		}
		out = append(out, pageSeries{family: family, kind: kind, name: line[:sp], value: v})
	}
	return out
}

// seriesKey names the series a page line belongs to: a histogram's
// buckets, _sum and _count lines are one series, keyed without le.
func seriesKey(s pageSeries) string {
	if s.kind != "histogram" {
		return s.name
	}
	var kept []string
	if i := strings.IndexByte(s.name, '{'); i >= 0 {
		for _, l := range strings.Split(strings.Trim(s.name[i:], "{}"), ",") {
			if !strings.HasPrefix(l, "le=") {
				kept = append(kept, l)
			}
		}
	}
	if len(kept) == 0 {
		return s.family
	}
	return s.family + "{" + strings.Join(kept, ",") + "}"
}

// ruleFamilies are the per-rule families, rendered from the published
// version's health epoch.
var ruleFamilies = []string{
	"rudolf_rule_fires_total",
	"rudolf_rule_feedback_tp_total",
	"rudolf_rule_feedback_fp_total",
	"rudolf_rule_drift",
	"rudolf_rule_last_fired_ago_seconds",
}

// TestRuleSeriesFollowPublishedVersion: after a publish, the per-rule series
// describe the new version only — a rule that no longer exists has no
// series, not a frozen last value — and the counters read exactly what
// GET /v1/rules/health reports for the same version.
func TestRuleSeriesFollowPublishedVersion(t *testing.T) {
	schema := testSchema(t)
	_, ts := newTestServer(t, Config{Schema: schema, Rules: mustRules(t, schema, "amount >= 100", "hour <= 6")})
	score := func(txs ...map[string]any) {
		t.Helper()
		if code, body := postJSON(t, ts.URL+"/v1/score", map[string]any{"transactions": txs}, nil); code != http.StatusOK {
			t.Fatalf("score = %d: %s", code, body)
		}
	}
	feedback := func(label string, amount, hour int64) {
		t.Helper()
		fb := tx(amount, hour, 0)
		fb["label"] = label
		if code, body := postJSON(t, ts.URL+"/v1/feedback", map[string]any{"transactions": []any{fb}}, nil); code != http.StatusOK {
			t.Fatalf("feedback = %d: %s", code, body)
		}
	}
	score(tx(500, 12, 0), tx(900, 3, 0), tx(50, 2, 0))
	feedback("fraud", 50, 3)
	feedback("legit", 600, 15)
	if code, body := postJSON(t, ts.URL+"/v1/rules", map[string]any{"rules": []string{"amount >= 100"}}, nil); code != http.StatusOK {
		t.Fatalf("publish = %d: %s", code, body)
	}
	score(tx(500, 12, 0))
	feedback("legit", 700, 15)

	page := getMetrics(t, ts.URL)
	got := map[string]float64{}
	for _, s := range parsePage(t, page) {
		if strings.HasPrefix(s.family, "rudolf_rule_") && strings.Contains(s.name, `{rule=`) {
			if strings.Contains(s.name, `{rule="1"}`) {
				t.Errorf("%s = %v survives the publish that removed rule 1", s.name, s.value)
			}
			got[s.name] = s.value
		}
	}
	var health ruleHealthResponse
	if code := getJSON(t, ts.URL+"/v1/rules/health", &health); code != http.StatusOK {
		t.Fatalf("health = %d", code)
	}
	if health.Version != 2 || len(health.Rules) != 1 {
		t.Fatalf("health = version %d with %d rules, want version 2 with 1", health.Version, len(health.Rules))
	}
	for _, h := range health.Rules {
		for family, want := range map[string]uint64{
			"rudolf_rule_fires_total":       h.Fires,
			"rudolf_rule_feedback_tp_total": h.TP,
			"rudolf_rule_feedback_fp_total": h.FP,
		} {
			name := fmt.Sprintf(`%s{rule="%d"}`, family, h.Rule)
			if v, ok := got[name]; !ok || v != float64(want) {
				t.Errorf("%s = %v (present %v), /v1/rules/health says %d", name, v, ok, want)
			}
		}
	}
	if h := health.Rules[0]; h.Fires != 1 || h.FP != 1 || h.TP != 0 {
		t.Fatalf("rule 0 health = %+v, want the new version's 1 fire and 1 FP only", h)
	}
}

// TestRuleSeriesCapped: past ruleLabelCap rules, the counter families sum
// the overflow rules into rule="other" and the gauge families export none
// of them — no "other" gauge holding whichever overflow rule came last.
func TestRuleSeriesCapped(t *testing.T) {
	schema := testSchema(t)
	texts := make([]string, 0, ruleLabelCap+2)
	for len(texts) < ruleLabelCap {
		texts = append(texts, "amount >= 5000")
	}
	texts = append(texts, "hour <= 6", "amount >= 100") // rules 128 and 129
	_, ts := newTestServer(t, Config{Schema: schema, Rules: mustRules(t, schema, texts...)})
	// 6000 fires rule 0; (50, 3) fires rule 128; (500, 12) fires rule 129.
	if code, body := postJSON(t, ts.URL+"/v1/score", map[string]any{"transactions": []any{
		tx(6000, 12, 0), tx(50, 3, 0), tx(500, 12, 0), tx(500, 13, 0),
	}}, nil); code != http.StatusOK {
		t.Fatalf("score = %d: %s", code, body)
	}
	fraud, legit := tx(50, 3, 0), tx(500, 12, 0)
	fraud["label"], legit["label"] = "fraud", "legit"
	if code, body := postJSON(t, ts.URL+"/v1/feedback", map[string]any{"transactions": []any{fraud, legit}}, nil); code != http.StatusOK {
		t.Fatalf("feedback = %d: %s", code, body)
	}

	series := parsePage(t, getMetrics(t, ts.URL))
	perFamily := map[string]int{}
	values := map[string]float64{}
	for _, s := range series {
		perFamily[s.family]++
		values[s.name] = s.value
	}
	for _, f := range ruleFamilies {
		want := ruleLabelCap
		if strings.HasSuffix(f, "_total") {
			want++ // the "other" series
		}
		if perFamily[f] != want {
			t.Errorf("%s has %d series, want %d", f, perFamily[f], want)
		}
		if _, ok := values[f+fmt.Sprintf(`{rule="%d"}`, ruleLabelCap)]; ok {
			t.Errorf("%s has a series for rule %d, past the cap", f, ruleLabelCap)
		}
	}
	for name, want := range map[string]float64{
		`rudolf_rule_fires_total{rule="0"}`:           1,
		`rudolf_rule_fires_total{rule="other"}`:       3,
		`rudolf_rule_feedback_tp_total{rule="other"}`: 1,
		`rudolf_rule_feedback_fp_total{rule="other"}`: 1,
	} {
		if v, ok := values[name]; !ok || v != want {
			t.Errorf("%s = %v (present %v), want %v", name, v, ok, want)
		}
	}
	for _, f := range []string{"rudolf_rule_drift", "rudolf_rule_last_fired_ago_seconds"} {
		if _, ok := values[f+`{rule="other"}`]; ok {
			t.Errorf(`%s{rule="other"} exists; a gauge cannot stand for many rules`, f)
		}
	}
}

// TestLabelSetsBounded: hostile traffic — unknown routes, wrong methods,
// bad bodies, rule sets past the cap and repeated publishes — against a
// durable windowed leader and its follower mints no unbounded label sets.
// Every labelled family stays under a fixed series bound, each per-rule
// family under ruleLabelCap+1, and a second, different round of the same
// abuse adds no series at all.
func TestLabelSetsBounded(t *testing.T) {
	cfg := velocityDurableConfig(t, t.TempDir())
	leader, lts := newTestServer(t, cfg)
	follower, fts := startFollower(t, Config{Schema: cfg.Schema}, lts.URL)
	waitFor(t, "follower readiness", func() bool {
		return getJSON(t, fts+"/readyz", nil) == http.StatusOK && follower.Version() >= 1
	})
	routes := []string{"/v1/score", "/v1/rules", "/v1/feedback", "/v1/refine", "/v1/stats", "/v1/schema",
		"/v1/rules/health", "/v1/audit", "/v1/alerts", "/v1/status", "/v1/wal/segments", "/v1/wal/snapshot"}
	send := func(method, url, body string) {
		t.Helper()
		req, err := http.NewRequest(method, url, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		readAll(t, resp)
	}
	round := func(r int) {
		for _, base := range []string{lts.URL, fts} {
			for i := 0; i < 20; i++ {
				send(http.MethodGet, fmt.Sprintf("%s/nope-%d-%d?x=%d", base, r, i, i), "")
				send(http.MethodPost, fmt.Sprintf("%s/v1/score/%d-%d", base, r, i), "{}")
			}
			for _, route := range routes {
				for _, m := range []string{http.MethodDelete, http.MethodPut, http.MethodPatch} {
					send(m, base+route, "")
				}
				send(http.MethodPost, base+route, fmt.Sprintf(`{"bad json %d`, r))
			}
		}
		for i, n := range []int{ruleLabelCap + 12, 3, ruleLabelCap + 40} {
			texts := make([]string, n)
			for j := range texts {
				texts[j] = fmt.Sprintf("amount >= %d", 10*j+r+i)
			}
			if code, body := postJSON(t, lts.URL+"/v1/rules", map[string]any{"rules": texts}, nil); code != http.StatusOK {
				t.Fatalf("publish %d rules = %d: %s", n, code, body)
			}
			if code, body := postJSON(t, lts.URL+"/v1/score", map[string]any{"transactions": []any{vtx(int64(200+r), 1, 5000)}}, nil); code != http.StatusOK {
				t.Fatalf("score = %d: %s", code, body)
			}
		}
		waitFor(t, "follower catch-up", func() bool { return follower.Version() == leader.Version() })
	}
	// labelled returns each labelled family's distinct series.
	labelled := func(base string) map[string]map[string]bool {
		out := map[string]map[string]bool{}
		for _, s := range parsePage(t, getMetrics(t, base)) {
			if key := seriesKey(s); strings.Contains(key, "{") {
				if out[s.family] == nil {
					out[s.family] = map[string]bool{}
				}
				out[s.family][key] = true
			}
		}
		return out
	}
	const maxSeries = ruleLabelCap + 1
	round(1)
	first := map[string]map[string]map[string]bool{lts.URL: labelled(lts.URL), fts: labelled(fts)}
	round(2)
	for _, base := range []string{lts.URL, fts} {
		now := labelled(base)
		if len(now) == 0 {
			t.Fatalf("%s/metrics has no labelled families", base)
		}
		for family, names := range now {
			if len(names) > maxSeries {
				t.Errorf("%s: %s has %d series, over the bound %d", base, family, len(names), maxSeries)
			}
			for name := range names {
				if !first[base][family][name] {
					t.Errorf("%s: %s appeared in the second round of hostile traffic", base, name)
				}
			}
		}
		for _, f := range ruleFamilies {
			if n := len(now[f]); n == 0 || n > ruleLabelCap+1 {
				t.Errorf("%s: %s has %d series, want 1..%d", base, f, n, ruleLabelCap+1)
			}
		}
	}
}
