package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func jsonUnmarshal(s string, v any) error { return json.Unmarshal([]byte(s), v) }

// readAll drains and closes a response body.
func readAll(t testing.TB, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestUnversionedPathIs404: the API lives under /v1 only — a pre-/v1
// unversioned path answers the uniform 404 envelope, not a redirect — while
// the infrastructure endpoints stay unversioned.
func TestUnversionedPathIs404(t *testing.T) {
	schema := testSchema(t)
	_, ts := newTestServer(t, Config{Schema: schema, Rules: mustRules(t, schema, "amount >= 100")})

	code, body := postJSON(t, ts.URL+"/score", tx(500, 3, 9), nil)
	var er errorResponse
	if err := jsonUnmarshal(body, &er); err != nil {
		t.Fatalf("body %q is not the error envelope: %v", body, err)
	}
	if code != http.StatusNotFound || er.Error.Code != CodeNotFound || !strings.Contains(er.Error.Message, "the API lives under /v1") {
		t.Fatalf("POST /score = %d (%s), want 404 %s pointing at /v1", code, body, CodeNotFound)
	}
	for _, p := range []string{"/healthz", "/readyz", "/metrics"} {
		resp, err := http.Get(ts.URL + p)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", p, resp.StatusCode)
		}
	}
}

// TestErrorEnvelope: every failure mode answers the uniform envelope with a
// stable code and the request id.
func TestErrorEnvelope(t *testing.T) {
	schema := testSchema(t)
	_, ts := newTestServer(t, Config{Schema: schema, Rules: mustRules(t, schema, "amount >= 100")})

	check := func(t *testing.T, code int, body, wantCode string, wantStatus int) {
		t.Helper()
		if code != wantStatus {
			t.Fatalf("status = %d (%s), want %d", code, body, wantStatus)
		}
		var er errorResponse
		if err := jsonUnmarshal(body, &er); err != nil {
			t.Fatalf("body %q is not the error envelope: %v", body, err)
		}
		if er.Error.Code != wantCode {
			t.Errorf("code = %q, want %q", er.Error.Code, wantCode)
		}
		if er.Error.Message == "" {
			t.Error("empty error message")
		}
	}

	t.Run("bad request", func(t *testing.T) {
		code, body := postJSON(t, ts.URL+"/v1/score", map[string]any{"transactions": []any{}}, nil)
		check(t, code, body, CodeBadRequest, http.StatusBadRequest)
	})
	t.Run("method not allowed", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/v1/score")
		if err != nil {
			t.Fatal(err)
		}
		body := readAll(t, resp)
		check(t, resp.StatusCode, body, CodeMethodNotAllowed, http.StatusMethodNotAllowed)
	})
	t.Run("not found", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/v1/nope")
		if err != nil {
			t.Fatal(err)
		}
		body := readAll(t, resp)
		check(t, resp.StatusCode, body, CodeNotFound, http.StatusNotFound)
	})
	t.Run("request id present", func(t *testing.T) {
		code, body := postJSON(t, ts.URL+"/v1/score", map[string]any{"transactions": []any{}}, nil)
		if code != http.StatusBadRequest {
			t.Fatalf("status = %d", code)
		}
		var er errorResponse
		if err := jsonUnmarshal(body, &er); err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(er.Error.RequestID, "req-") {
			t.Errorf("request_id = %q, want a req-… id", er.Error.RequestID)
		}
	})
}

// TestIfMatch: optimistic concurrency on rule publishes via the version
// ETag.
func TestIfMatch(t *testing.T) {
	schema := testSchema(t)
	_, ts := newTestServer(t, Config{Schema: schema, Rules: mustRules(t, schema, "amount >= 100")})

	// GET exposes the current version as a strong ETag.
	resp, err := http.Get(ts.URL + "/v1/rules")
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp)
	etag := resp.Header.Get("ETag")
	if etag != `"1"` {
		t.Fatalf("ETag = %q, want %q", etag, `"1"`)
	}

	post := func(t *testing.T, ifMatch string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/rules",
			strings.NewReader(`{"rules":["amount >= 200"],"comment":"cas"}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if ifMatch != "" {
			req.Header.Set("If-Match", ifMatch)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Matching If-Match publishes and bumps the ETag.
	resp = post(t, etag)
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST with matching If-Match = %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("ETag"); got != `"2"` {
		t.Fatalf("post-publish ETag = %q, want %q", got, `"2"`)
	}

	// The now-stale tag conflicts, and the response carries the current tag.
	resp = post(t, etag)
	body = readAll(t, resp)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("POST with stale If-Match = %d: %s", resp.StatusCode, body)
	}
	var er errorResponse
	if err := jsonUnmarshal(body, &er); err != nil || er.Error.Code != CodeConflict {
		t.Fatalf("conflict body = %q (err %v), want code %q", body, err, CodeConflict)
	}
	if got := resp.Header.Get("ETag"); got != `"2"` {
		t.Fatalf("conflict ETag = %q, want the current %q", got, `"2"`)
	}

	// "*" and absence both bypass the check.
	resp = post(t, "*")
	readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST with If-Match: * = %d", resp.StatusCode)
	}
	resp = post(t, "")
	readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST without If-Match = %d", resp.StatusCode)
	}

	// Garbage is a 400, not a silent bypass.
	resp = post(t, `"seven"`)
	body = readAll(t, resp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("POST with bad If-Match = %d: %s", resp.StatusCode, body)
	}
}

// TestAPIContract pins the whole /v1 surface, route × method, on a leader
// and on a follower: expected status, stable error code and envelope shape.
// The follower is constructed with a FollowURL but never connected — the
// contract of an un-bootstrapped follower (not ready, read-only, version 0)
// is exactly what a load balancer and a retrying client see during catch-up.
func TestAPIContract(t *testing.T) {
	schema := testSchema(t)
	leader, lts := newTestServer(t, Config{
		Schema:  schema,
		Rules:   mustRules(t, schema, "amount >= 100"),
		DataDir: t.TempDir(),
		Fsync:   "never",
	})
	defer leader.Close()
	// Port 9 (discard) is never listened on; Follow is never started, so the
	// URL is only identity.
	follower, err := New(Config{Schema: schema, FollowURL: "http://127.0.0.1:9"})
	if err != nil {
		t.Fatal(err)
	}
	fts := httptest.NewServer(follower.Handler())
	defer fts.Close()

	scoreBody := `{"attrs":{"amount":150,"hour":3},"score":10}`
	feedbackBody := `{"transactions":[{"attrs":{"amount":150,"hour":3},"score":10,"label":"fraud"}]}`
	rulesBody := `{"rules":["amount >= 50"],"comment":"contract"}`

	// One expectation: HTTP status plus the envelope's stable code ("" for
	// success — no envelope to check).
	type want struct {
		status int
		code   string
	}
	ok := want{http.StatusOK, ""}
	readOnly := want{http.StatusForbidden, CodeReadOnly}
	notAllowed := want{http.StatusMethodNotAllowed, CodeMethodNotAllowed}
	notFound := want{http.StatusNotFound, CodeNotFound}

	// Rows run in order against both servers; mutating leader rows are
	// sequenced so earlier rows never invalidate later expectations (refine
	// runs before feedback exists, so it answers 409).
	rows := []struct {
		method, path, body string
		leader, follower   want
		// allow is the exact Allow header of a 405 on this row; id is
		// whether an error envelope carries the request_id (instrumented
		// routes only).
		allow string
		id    bool
	}{
		{"POST", "/v1/score", scoreBody, ok, ok, "", true},
		{"GET", "/v1/score", "", notAllowed, notAllowed, "POST", true},
		{"GET", "/v1/rules", "", ok, ok, "", true},
		{"DELETE", "/v1/rules", "", notAllowed, notAllowed, "GET, POST", true},
		{"POST", "/v1/refine", "{}", want{http.StatusConflict, CodeConflict}, readOnly, "", true},
		{"GET", "/v1/refine", "", notAllowed, notAllowed, "POST", true},
		{"POST", "/v1/feedback", feedbackBody, ok, readOnly, "", true},
		{"GET", "/v1/feedback", "", notAllowed, notAllowed, "POST", true},
		{"POST", "/v1/rules", rulesBody, ok, readOnly, "", true},
		{"GET", "/v1/stats", "", ok, ok, "", true},
		{"POST", "/v1/stats", "{}", notAllowed, notAllowed, "GET", true},
		{"GET", "/v1/schema", "", ok, ok, "", true},
		{"POST", "/v1/schema", "{}", notAllowed, notAllowed, "GET", true},
		{"GET", "/v1/status", "", ok, ok, "", true},
		{"POST", "/v1/status", "{}", notAllowed, notAllowed, "GET", true},
		{"GET", "/v1/rules/health", "", ok, ok, "", true},
		{"POST", "/v1/rules/health", "{}", notAllowed, notAllowed, "GET", true},
		{"GET", "/v1/audit", "", ok, ok, "", true},
		{"POST", "/v1/audit", "{}", notAllowed, notAllowed, "GET", true},
		// /v1/alerts is node-local on every role: a follower accepts alert
		// rules (its replication lag is exactly what they watch), so POST is
		// deliberately NOT read-only-guarded.
		{"GET", "/v1/alerts", "", ok, ok, "", true},
		{"POST", "/v1/alerts", `{"rules":["alert contract: value(rudolf_score_inflight) > 1000000"]}`, ok, ok, "", true},
		{"DELETE", "/v1/alerts", "", notAllowed, notAllowed, "GET, POST", true},
		{"GET", "/v1/trace", "", ok, ok, "", false},
		{"POST", "/v1/trace", "{}", notAllowed, notAllowed, "GET", false},
		{"GET", "/v1/debug/slow", "", ok, ok, "", false},
		{"POST", "/v1/debug/slow", "{}", notAllowed, notAllowed, "GET", false},
		{"GET", "/v1/debug/state", "", ok, ok, "", false},
		{"POST", "/v1/debug/state", "{}", notAllowed, notAllowed, "GET", false},
		// The replication surface: served by a durable leader, 404 with the
		// uniform envelope on a node without a WAL (the follower), 405 for
		// wrong methods on both. ?from=0 is invalid, so the leader's stream
		// row answers 400 instead of long-polling the test.
		{"GET", "/v1/wal/segments", "", ok, notFound, "", true},
		{"POST", "/v1/wal/segments", "{}", notAllowed, notAllowed, "GET", true},
		{"GET", "/v1/wal/snapshot", "", notFound, notFound, "", true}, // no snapshot yet on the leader either
		{"POST", "/v1/wal/snapshot", "{}", notAllowed, notAllowed, "GET", true},
		{"GET", "/v1/wal/stream?from=0", "", want{http.StatusBadRequest, CodeBadRequest}, notFound, "", false},
		{"POST", "/v1/wal/stream", "{}", notAllowed, notAllowed, "GET", false},
		// Catch-all and infra.
		{"GET", "/v1/nope", "", notFound, notFound, "", false},
		{"GET", "/readyz", "", ok, want{http.StatusServiceUnavailable, CodeNotReady}, "", false},
	}

	run := func(t *testing.T, base, role string, method, path, body string, w want, allow string, id bool) {
		t.Helper()
		var rd io.Reader
		if body != "" {
			rd = strings.NewReader(body)
		}
		req, err := http.NewRequest(method, base+path, rd)
		if err != nil {
			t.Fatal(err)
		}
		if body != "" {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		got := readAll(t, resp)
		if resp.StatusCode != w.status {
			t.Fatalf("%s: %s %s = %d (%s), want %d", role, method, path, resp.StatusCode, got, w.status)
		}
		if w.code == "" {
			return
		}
		var er errorResponse
		if err := jsonUnmarshal(got, &er); err != nil {
			t.Fatalf("%s: %s %s body %q is not the error envelope: %v", role, method, path, got, err)
		}
		if er.Error.Code != w.code {
			t.Errorf("%s: %s %s code = %q, want %q", role, method, path, er.Error.Code, w.code)
		}
		if er.Error.Message == "" {
			t.Errorf("%s: %s %s: empty error message", role, method, path)
		}
		if got := resp.Header.Get("Allow"); w.code == CodeMethodNotAllowed && got != allow {
			t.Errorf("%s: %s %s: 405 with Allow %q, want %q", role, method, path, got, allow)
		}
		if got := er.Error.RequestID != ""; got != id {
			t.Errorf("%s: %s %s: envelope request_id %q, want one: %v", role, method, path, er.Error.RequestID, id)
		}
		if w.code == CodeReadOnly && resp.Header.Get("Location") == "" {
			t.Errorf("%s: %s %s: read_only without a Location to the leader", role, method, path)
		}
	}
	for _, row := range rows {
		run(t, lts.URL, "leader", row.method, row.path, row.body, row.leader, row.allow, row.id)
		run(t, fts.URL, "follower", row.method, row.path, row.body, row.follower, row.allow, row.id)
	}
}

// TestConfigValidateBasics covers the non-durability Validate diagnostics.
func TestConfigValidateBasics(t *testing.T) {
	if err := (Config{}).Validate(); err == nil || !strings.Contains(err.Error(), "Schema is required") {
		t.Errorf("Validate of zero Config = %v, want a schema-required error", err)
	}
	schema := testSchema(t)
	for _, tc := range []struct {
		name string
		mut  func(*Config)
	}{
		{"negative workers", func(c *Config) { c.Workers = -1 }},
		{"negative batch", func(c *Config) { c.MaxBatch = -1 }},
		{"negative body", func(c *Config) { c.MaxBodyBytes = -1 }},
		{"negative timeout", func(c *Config) { c.ScoreTimeout = -1 }},
		{"negative trace capacity", func(c *Config) { c.TraceCapacity = -1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Schema: schema}
			tc.mut(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("Validate accepted an out-of-range value")
			}
		})
	}
	// And New refuses what Validate refuses.
	if _, err := New(Config{Schema: schema, Workers: -1}); err == nil {
		t.Error("New accepted a config Validate rejects")
	}
}
