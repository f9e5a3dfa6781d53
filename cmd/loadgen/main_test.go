package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"regexp"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/serve"
)

// TestRunLoadAgainstServer drives a short load phase at an in-process daemon
// over the synthetic schema (numeric and categorical attributes) and checks
// the summary a script reads back.
func TestRunLoadAgainstServer(t *testing.T) {
	ds := datagen.Generate(datagen.Config{Size: 200, Seed: 1})
	s, err := serve.New(serve.Config{Schema: ds.Schema, Rules: datagen.InitialRules(ds, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	schema, err := fetchSchema(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	sum := runLoad(ts.URL, schema, 200*time.Millisecond, 2, 8, 1)
	if sum.requests == 0 || sum.errors != 0 || sum.tx != 8*sum.requests {
		t.Fatalf("summary: %d requests, %d tx, %d errors", sum.requests, sum.tx, sum.errors)
	}
	if err := sum.err(); err != nil {
		t.Fatalf("clean run judged failed: %v", err)
	}
	if sum.slowest.requestID == "" {
		t.Fatal("no request_id decoded from any scoring response")
	}

	page, err := fetchMetrics(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	sum.report(&out, page)
	// scripts/cluster-smoke.sh's tx_rate reads the field after "->" on the
	// first line mentioning tx/s.
	rateLine := regexp.MustCompile(`(?m)^loadgen: \d+ requests, \d+ tx in \S+ -> \d+ tx/s \(0 errors\)$`)
	if !rateLine.Match(out.Bytes()) {
		t.Fatalf("report has no parseable throughput line:\n%s", out.String())
	}
	for _, want := range []string{"client-side latency", "per-request latency from /metrics", "server stage means", "batch size from /metrics: mean 8.0", "slowest request"} {
		if !bytes.Contains(out.Bytes(), []byte(want)) {
			t.Errorf("report lacks %q:\n%s", want, out.String())
		}
	}
}

// TestRunLoadFailsOnServerErrors: a daemon that answers every score with a
// 5xx yields a failed verdict, not a zero-throughput pass.
func TestRunLoadFailsOnServerErrors(t *testing.T) {
	ds := datagen.Generate(datagen.Config{Size: 50, Seed: 1})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	sum := runLoad(ts.URL, ds.Schema, 50*time.Millisecond, 1, 4, 1)
	if sum.requests != 0 || sum.errors == 0 {
		t.Fatalf("summary against a failing daemon: %d requests, %d errors", sum.requests, sum.errors)
	}
	if sum.err() == nil {
		t.Fatal("a run in which every request failed was judged clean")
	}
	if (summary{}).err() == nil {
		t.Fatal("a run with no requests at all was judged clean")
	}
}
