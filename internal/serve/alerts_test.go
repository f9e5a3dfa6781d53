package serve

import (
	"fmt"
	"net/http"
	goruntime "runtime"
	"strings"
	"testing"

	"repro/internal/alert"
	"repro/internal/telemetry"
)

// alertTestConfig builds a server config with a deterministic alert setup:
// no ticker (GET /v1/alerts?refresh=1 drives evaluation synchronously) and
// a single rate-based rule that breaches while transactions are being
// scored and resolves the moment traffic stops.
func alertTestConfig(t *testing.T) Config {
	schema := testSchema(t)
	return Config{
		Schema:        schema,
		Rules:         mustRules(t, schema, "amount >= 100"),
		AlertInterval: -1,
		AlertRules:    alert.MustParseRules("alert traffic severity=page: rate(rudolf_score_tx_total) > 0"),
	}
}

type alertsTestDoc struct {
	RequestID string `json:"request_id"`
	Firing    int    `json:"firing"`
	Pending   int    `json:"pending"`
	Rules     []struct {
		Name    string  `json:"name"`
		State   string  `json:"state"`
		Value   float64 `json:"value"`
		HasData bool    `json:"has_data"`
	} `json:"rules"`
	Recent []struct {
		Name  string `json:"name"`
		State string `json:"state"`
	} `json:"recent"`
}

func getMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	return body
}

func getAlerts(t *testing.T, base string, refresh bool) (alertsTestDoc, string) {
	t.Helper()
	u := base + "/v1/alerts"
	if refresh {
		u += "?refresh=1"
	}
	resp, err := http.Get(u)
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/alerts = %d: %s", resp.StatusCode, body)
	}
	var doc alertsTestDoc
	if err := jsonUnmarshal(body, &doc); err != nil {
		t.Fatalf("GET /v1/alerts body %q: %v", body, err)
	}
	return doc, resp.Header.Get("ETag")
}

// TestAlertsTripAndResolve drives the full lifecycle through the HTTP
// surface: traffic breaches the rate rule, the alert fires (visible on
// /v1/alerts, /metrics, /v1/status and /v1/debug/state), and the next
// quiet evaluation resolves it.
func TestAlertsTripAndResolve(t *testing.T) {
	_, ts := newTestServer(t, alertTestConfig(t))

	// Prime the rate window: first sighting is no-data, nothing fires.
	doc, etag := getAlerts(t, ts.URL, true)
	if len(doc.Rules) != 1 || doc.Firing != 0 || doc.Rules[0].HasData {
		t.Fatalf("primed state: %+v", doc)
	}
	if etag == "" {
		t.Fatal("GET /v1/alerts carries no ETag")
	}

	// Score traffic, then evaluate: the inter-evaluation rate is positive.
	if code, body := postJSON(t, ts.URL+"/v1/score", tx(500, 3, 9), nil); code != http.StatusOK {
		t.Fatalf("score: %d %s", code, body)
	}
	doc, etag2 := getAlerts(t, ts.URL, true)
	if doc.Firing != 1 || doc.Rules[0].State != "firing" || doc.Rules[0].Value <= 0 {
		t.Fatalf("breached state: %+v", doc)
	}
	if etag2 == etag {
		t.Fatalf("ETag did not move across a firing transition: %s", etag)
	}

	// The firing alert is visible on every surface.
	metrics := getMetrics(t, ts.URL)
	for _, want := range []string{
		`ALERTS{name="traffic",severity="page",state="firing"} 1`,
		"rudolf_alerts_firing 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q while firing", want)
		}
	}
	var status struct {
		AlertsFiring int `json:"alerts_firing"`
	}
	if code := getJSON(t, ts.URL+"/v1/status", &status); code != http.StatusOK || status.AlertsFiring != 1 {
		t.Fatalf("/v1/status = %d, alerts_firing = %d, want 1", code, status.AlertsFiring)
	}
	var dbg struct {
		Alerts *struct {
			Rules         int  `json:"rules"`
			Firing        int  `json:"firing"`
			TickerRunning bool `json:"ticker_running"`
		} `json:"alerts"`
	}
	if code := getJSON(t, ts.URL+"/v1/debug/state", &dbg); code != http.StatusOK || dbg.Alerts == nil {
		t.Fatalf("/v1/debug/state = %d, alerts block %+v", code, dbg.Alerts)
	}
	if dbg.Alerts.Firing != 1 || dbg.Alerts.Rules != 1 || dbg.Alerts.TickerRunning {
		t.Fatalf("debug alerts block: %+v", dbg.Alerts)
	}

	// No traffic between evaluations: the rate drops to zero and the alert
	// resolves, leaving the firing→resolved pair in the history.
	doc, _ = getAlerts(t, ts.URL, true)
	if doc.Firing != 0 || doc.Rules[0].State != "inactive" {
		t.Fatalf("resolved state: %+v", doc)
	}
	if len(doc.Recent) != 2 || doc.Recent[0].State != "resolved" || doc.Recent[1].State != "firing" {
		t.Fatalf("history: %+v", doc.Recent)
	}
	metrics = getMetrics(t, ts.URL)
	if !strings.Contains(metrics, `ALERTS{name="traffic",severity="page",state="firing"} 0`) {
		t.Error("/metrics still shows the resolved alert firing")
	}

	// A conditional re-read with the current tag answers 304.
	_, etag3 := getAlerts(t, ts.URL, false)
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/alerts", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("If-None-Match", etag3)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp)
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional GET /v1/alerts = %d, want 304", resp.StatusCode)
	}
}

// TestAlertsPublish: POST /v1/alerts replaces the node-local rule set,
// bumps the config version (and the ETag), and rejects malformed rules
// with the uniform envelope.
func TestAlertsPublish(t *testing.T) {
	_, ts := newTestServer(t, alertTestConfig(t))

	_, etagBefore := getAlerts(t, ts.URL, false)
	var ack struct {
		RequestID     string `json:"request_id"`
		ConfigVersion int    `json:"config_version"`
		Rules         int    `json:"rules"`
	}
	code, body := postJSON(t, ts.URL+"/v1/alerts", map[string]any{
		"rules": []string{
			"alert a for=1h: value(rudolf_score_inflight) > 1000000",
			"alert b: rate(rudolf_score_tx_total) > 1000000",
		},
	}, &ack)
	if code != http.StatusOK {
		t.Fatalf("POST /v1/alerts = %d: %s", code, body)
	}
	if ack.ConfigVersion != 2 || ack.Rules != 2 || ack.RequestID == "" {
		t.Fatalf("publish ack: %+v", ack)
	}
	doc, etagAfter := getAlerts(t, ts.URL, false)
	if len(doc.Rules) != 2 || doc.Rules[0].Name != "a" || doc.Rules[1].Name != "b" {
		t.Fatalf("post-install rules: %+v", doc.Rules)
	}
	if etagAfter == etagBefore {
		t.Fatalf("ETag did not move across a rule install: %s", etagAfter)
	}

	// A parse error is a 400 in the uniform envelope, and the installed set
	// is untouched.
	code, body = postJSON(t, ts.URL+"/v1/alerts", map[string]any{"rules": []string{"alert broken: wat"}}, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("bad rule POST = %d: %s", code, body)
	}
	var er errorResponse
	if err := jsonUnmarshal(body, &er); err != nil || er.Error.Code != CodeBadRequest {
		t.Fatalf("bad rule envelope %q (err %v), want code %q", body, err, CodeBadRequest)
	}
	if doc, _ := getAlerts(t, ts.URL, false); len(doc.Rules) != 2 {
		t.Fatalf("failed publish mutated the rule set: %+v", doc.Rules)
	}

	// An explicit empty set disables alerting without disabling the surface.
	code, body = postJSON(t, ts.URL+"/v1/alerts", map[string]any{"rules": []string{}}, &ack)
	if code != http.StatusOK || ack.Rules != 0 {
		t.Fatalf("empty publish = %d (%s), ack %+v", code, body, ack)
	}
}

// TestBuildInfoMetric pins the build-identity gauge: constant 1, labeled
// with the running toolchain and the daemon version. The same default
// configuration installs alert.DefaultRules(): after some scoring every
// default rule is evaluated, quiet, and exported as an ALERTS series.
func TestBuildInfoMetric(t *testing.T) {
	schema := testSchema(t)
	_, ts := newTestServer(t, Config{Schema: schema, Rules: mustRules(t, schema, "amount >= 100")})
	want := fmt.Sprintf("rudolf_build_info{go_version=%q,version=%q} 1", goruntime.Version(), Version)
	if metrics := getMetrics(t, ts.URL); !strings.Contains(metrics, want) {
		t.Fatalf("/metrics missing %q", want)
	}

	for i := 0; i < 3; i++ {
		if code, body := postJSON(t, ts.URL+"/v1/score", tx(500, 3, 9), nil); code != http.StatusOK {
			t.Fatalf("score: %d %s", code, body)
		}
	}
	doc, _ := getAlerts(t, ts.URL, true)
	defaults := alert.DefaultRules()
	if len(doc.Rules) != len(defaults) || doc.Firing != 0 {
		t.Fatalf("default alerts: %d rules, %d firing; want %d quiet rules", len(doc.Rules), doc.Firing, len(defaults))
	}
	metrics := getMetrics(t, ts.URL)
	for i, r := range defaults {
		if got := doc.Rules[i]; got.Name != r.Name || got.State == "firing" {
			t.Errorf("default alert %d = %+v, want %s not firing", i, got, r.Name)
		}
		if series := fmt.Sprintf("ALERTS{name=%q,severity=", r.Name); !strings.Contains(metrics, series) {
			t.Errorf("/metrics missing %s...} for default alert %s", series, r.Name)
		}
	}
}

// TestAuditBadN pins GET /v1/audit's parameter validation: any non-positive
// or non-numeric n answers 400 in the uniform envelope.
func TestAuditBadN(t *testing.T) {
	schema := testSchema(t)
	_, ts := newTestServer(t, Config{Schema: schema, Rules: mustRules(t, schema, "amount >= 100")})
	for _, bad := range []string{"0", "-1", "abc", "1.5"} {
		resp, err := http.Get(ts.URL + "/v1/audit?n=" + bad)
		if err != nil {
			t.Fatal(err)
		}
		body := readAll(t, resp)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET /v1/audit?n=%s = %d (%s), want 400", bad, resp.StatusCode, body)
			continue
		}
		var er errorResponse
		if err := jsonUnmarshal(body, &er); err != nil || er.Error.Code != CodeBadRequest {
			t.Errorf("n=%s envelope %q (err %v), want code %q", bad, body, err, CodeBadRequest)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/audit?n=5")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/audit?n=5 = %d (%s), want 200", resp.StatusCode, body)
	}
}

// TestAlertWebhookConfigValidate: a relative or non-http webhook URL is
// rejected up front.
func TestAlertWebhookConfigValidate(t *testing.T) {
	schema := testSchema(t)
	for _, bad := range []string{"alertmanager:9093", "/hook", "ftp://x/hook"} {
		cfg := Config{Schema: schema, AlertWebhook: bad}
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "AlertWebhook") {
			t.Errorf("Validate(AlertWebhook=%q) = %v, want an AlertWebhook error", bad, err)
		}
	}
	if err := (Config{Schema: schema, AlertWebhook: "http://127.0.0.1:9093/hook"}).Validate(); err != nil {
		t.Errorf("Validate rejected a good webhook URL: %v", err)
	}
}

// metricFamilies returns the metric families a /metrics page declares (its
// "# TYPE" lines) and the set of those with a "# HELP" line.
func metricFamilies(page string) (families []string, helped map[string]bool) {
	helped = map[string]bool{}
	for _, line := range strings.Split(page, "\n") {
		f := strings.Fields(line)
		if len(f) < 3 || f[0] != "#" {
			continue
		}
		switch f[1] {
		case "TYPE":
			families = append(families, f[2])
		case "HELP":
			helped[f[2]] = true
		}
	}
	return families, helped
}

// familyKinds is every family a durable windowed leader and its follower
// render, with its # TYPE: the kind dashboards and recording rules rely on,
// whether the registry stores the series or reads it at read time.
var familyKinds = map[string]string{
	"ALERTS":                               "gauge",
	"rudolf_alert_evals_total":             "counter",
	"rudolf_alert_transitions_total":       "counter",
	"rudolf_alerts_firing":                 "gauge",
	"rudolf_build_info":                    "gauge",
	"rudolf_capture_cache_hits_total":      "counter",
	"rudolf_capture_cache_misses_total":    "counter",
	"rudolf_expert_queries_total":          "counter",
	"rudolf_feedback_tx_total":             "counter",
	"rudolf_go_gc_cycles":                  "gauge",
	"rudolf_go_gc_pause_seconds":           "histogram",
	"rudolf_go_goroutines":                 "gauge",
	"rudolf_go_heap_bytes":                 "gauge",
	"rudolf_go_heap_objects":               "gauge",
	"rudolf_http_requests_total":           "counter",
	"rudolf_refine_round_duration_seconds": "histogram",
	"rudolf_refines_total":                 "counter",
	"rudolf_replica_applied_seq":           "gauge",
	"rudolf_replica_lag_records":           "gauge",
	"rudolf_replica_reconnects_total":      "counter",
	"rudolf_rule_drift":                    "gauge",
	"rudolf_rule_feedback_fp_total":        "counter",
	"rudolf_rule_feedback_tp_total":        "counter",
	"rudolf_rule_fires_total":              "counter",
	"rudolf_rule_last_fired_ago_seconds":   "gauge",
	"rudolf_rule_swaps_total":              "counter",
	"rudolf_rules_count":                   "gauge",
	"rudolf_rules_version":                 "gauge",
	"rudolf_score_aborted_total":           "counter",
	"rudolf_score_batch_size":              "histogram",
	"rudolf_score_inflight":                "gauge",
	"rudolf_score_latency_seconds":         "histogram",
	"rudolf_score_tx_total":                "counter",
	"rudolf_snapshots_total":               "counter",
	"rudolf_stage_duration_seconds":        "histogram",
	"rudolf_trace_slow_promoted_total":     "counter",
	"rudolf_trace_slow_threshold_seconds":  "gauge",
	"rudolf_wal_append_seconds":            "histogram",
	"rudolf_wal_appends_total":             "counter",
	"rudolf_wal_disk_bytes":                "gauge",
	"rudolf_wal_fsync_seconds":             "histogram",
	"rudolf_wal_fsyncs_total":              "counter",
	"rudolf_wal_replayed_records_total":    "counter",
	"rudolf_wal_segments":                  "gauge",
	"rudolf_wal_torn_tail_drops_total":     "counter",
	"rudolf_window_entries":                "gauge",
	"rudolf_window_evictions_total":        "counter",
	"rudolf_window_watermark_minutes":      "gauge",
}

// TestMetricsDocumentedAndAlertable: every metric family a durable windowed
// leader or its follower registers carries a # HELP line and its expected
// # TYPE, every counter series on a page reads the same through
// Registry.Value (the alert engine's path) as on the page, and every default
// alert samples a family one of them registers (or a per-rule health
// signal), so no default alert can watch a series that does not exist.
func TestMetricsDocumentedAndAlertable(t *testing.T) {
	cfg := velocityDurableConfig(t, t.TempDir())
	leader, lts := newTestServer(t, cfg)
	fb := vtx(100, 1, 50)
	fb["label"] = "fraud"
	if code, body := postJSON(t, lts.URL+"/v1/feedback", map[string]any{"transactions": []any{fb}}, nil); code != http.StatusOK {
		t.Fatalf("feedback: %d %s", code, body)
	}
	if code, body := postJSON(t, lts.URL+"/v1/score", vtx(101, 1, 50), nil); code != http.StatusOK {
		t.Fatalf("score: %d %s", code, body)
	}
	follower, fts := startFollower(t, Config{Schema: cfg.Schema}, lts.URL)
	waitFor(t, "follower readiness", func() bool {
		return getJSON(t, fts+"/readyz", nil) == http.StatusOK && follower.Version() >= 1
	})
	goruntime.GC() // so the GC pause histogram has an observation to report

	registered := map[string]bool{}
	for base, srv := range map[string]*Server{lts.URL: leader, fts: follower} {
		page := getMetrics(t, base)
		for _, ps := range parsePage(t, page) {
			if want := familyKinds[ps.family]; ps.kind != want {
				t.Errorf("%s/metrics: family %s has TYPE %s, want %q", base, ps.family, ps.kind, want)
			}
			if ps.kind != "counter" {
				continue
			}
			if v, ok := srv.Registry().Value(ps.name); !ok || v != ps.value {
				t.Errorf("%s: Registry.Value(%s) = %v, %v; the page says %v", base, ps.name, v, ok, ps.value)
			}
		}
		families, helped := metricFamilies(page)
		if len(families) == 0 {
			t.Fatalf("%s/metrics declares no families", base)
		}
		for _, f := range families {
			registered[f] = true
			if !helped[f] {
				t.Errorf("%s/metrics: family %s has no # HELP line", base, f)
			}
		}
		if v, ok := telemetry.ScrapeValue(page, "rudolf_go_gc_pause_seconds_count"); !ok || v == 0 {
			t.Errorf("%s/metrics: rudolf_go_gc_pause_seconds_count = %v, %v after a GC, want > 0", base, v, ok)
		}
	}
	for f := range familyKinds {
		if !registered[f] {
			t.Errorf("family %s is on neither page", f)
		}
	}
	for _, r := range alert.DefaultRules() {
		sig := r.Expr.Signal
		if r.Expr.Fn == "max" {
			switch sig {
			case alert.SignalRuleFPShare, alert.SignalRuleDrift, alert.SignalRuleStaleness:
			default:
				t.Errorf("alert %s: max(%s) is not a rule-health signal", r.Name, sig)
			}
			continue
		}
		if i := strings.IndexByte(sig, '{'); i >= 0 {
			sig = sig[:i]
		}
		if !registered[sig] {
			t.Errorf("alert %s samples %s, which neither a leader nor a follower registers", r.Name, sig)
		}
	}
}
