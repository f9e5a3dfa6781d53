package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/datagen"
)

// TestScoreDeadlineWhileQueued: a request whose deadline passes while it
// waits for a worker slot is answered 503 timeout, and — on a durable
// leader with windowed rules — was not observed: neither the WAL nor the
// window store moved.
func TestScoreDeadlineWhileQueued(t *testing.T) {
	cfg := velocityDurableConfig(t, t.TempDir())
	cfg.Workers, cfg.ScoreTimeout = 1, 50*time.Millisecond
	s, ts := newTestServer(t, cfg)
	if code, body := postJSON(t, ts.URL+"/v1/score", vtx(100, 1, 50), nil); code != http.StatusOK {
		t.Fatalf("score: %d %s", code, body)
	}
	seq, entries, wm := s.wal.LastSeq(), s.winStore.Entries(), s.winStore.Watermark()

	s.sem <- struct{}{} // hold the only worker slot
	// A new user at a later minute: observing it would add a window entry
	// and lift the watermark.
	code, body := postJSON(t, ts.URL+"/v1/score", vtx(200, 2, 50), nil)
	<-s.sem
	if code != http.StatusServiceUnavailable || !strings.Contains(body, `"code":"timeout"`) {
		t.Fatalf("score queued past its deadline: %d %s, want the 503 timeout envelope", code, body)
	}
	if s.wal.LastSeq() != seq || s.winStore.Entries() != entries || s.winStore.Watermark() != wm {
		t.Fatalf("a timed-out score was observed: WAL seq %d -> %d, window entries %d -> %d, watermark %d -> %d",
			seq, s.wal.LastSeq(), entries, s.winStore.Entries(), wm, s.winStore.Watermark())
	}
	// The same request with a slot free is observed.
	if code, body := postJSON(t, ts.URL+"/v1/score", vtx(200, 2, 50), nil); code != http.StatusOK || s.wal.LastSeq() == seq {
		t.Fatalf("score with a free slot: %d %s, WAL seq %d (was %d)", code, body, s.wal.LastSeq(), seq)
	}
}

// TestScoreStalledBody: a client that sends the headers and then stalls the
// body is ended by the read deadline — answered 503 timeout promptly, not
// held until it gives up.
func TestScoreStalledBody(t *testing.T) {
	schema := testSchema(t)
	s, ts := newTestServer(t, Config{Schema: schema, Rules: mustRules(t, schema, "amount >= 100"),
		ScoreTimeout: 100 * time.Millisecond})
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	fmt.Fprint(conn, "POST /v1/score HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\n"+
		"Content-Length: 1000\r\n\r\n"+`{"transactions":[`)
	conn.SetReadDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck // loopback
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("no answer to a stalled body: %v", err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(body, `"code":"timeout"`) {
		t.Fatalf("stalled body: %d %s, want the 503 timeout envelope", resp.StatusCode, body)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("stalled body answered after %v", d)
	}
	if n := s.httpCounter("/v1/score", http.StatusServiceUnavailable).Value(); n != 1 {
		t.Fatalf("rudolf_http_requests_total{code=503} = %d, want 1", n)
	}
}

// TestMutatingRoutesStalledBodyDeadline: the read deadline bounds a stalled
// body on every mutating route too — 503 timeout, never a 400 "bad JSON".
func TestMutatingRoutesStalledBodyDeadline(t *testing.T) {
	schema := testSchema(t)
	d := 100 * time.Millisecond
	_, ts := newTestServer(t, Config{Schema: schema, Rules: mustRules(t, schema, "amount >= 100"),
		SwapTimeout: d, FeedbackTimeout: d, RefineTimeout: d})
	for _, c := range []struct{ path, ctype string }{
		{"/v1/rules", "application/json"},
		{"/v1/rules", "text/plain"},
		{"/v1/feedback", "application/json"},
		{"/v1/refine", "application/json"},
	} {
		conn, err := net.Dial("tcp", ts.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: test\r\nContent-Type: %s\r\nContent-Length: 1000\r\n\r\n{", c.path, c.ctype)
		conn.SetReadDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck // loopback
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatalf("%s %s: no answer to a stalled body: %v", c.path, c.ctype, err)
		}
		if body := readAll(t, resp); resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(body, `"code":"timeout"`) {
			t.Errorf("%s %s stalled body: %d %s, want the 503 timeout envelope", c.path, c.ctype, resp.StatusCode, body)
		}
		conn.Close()
	}
}

// smallSendBuffer shrinks each accepted connection's kernel send buffer, so
// a client that stops reading blocks the server's writes after kilobytes
// rather than after megabytes of loopback buffering.
type smallSendBuffer struct{ net.Listener }

func (l smallSendBuffer) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetWriteBuffer(4096) //nolint:errcheck // a hint; the test fills whatever it gets
	}
	return c, err
}

// TestScoreAbortsStalledReader: a client that stops reading a multi-chunk
// response is cut off by the write deadline. The connection is aborted (the
// client's read fails; it never sees a complete-looking 200), the abort is
// counted once, the request span ends exactly once, the request still
// counts in rudolf_http_requests_total, and no goroutine is left behind.
func TestScoreAbortsStalledReader(t *testing.T) {
	schema, rs, txs := explainAllFixture(t, 16)
	// No alert ticker: its goroutines start asynchronously and would blur
	// the goroutine count this test compares.
	s, err := New(Config{Schema: schema, Rules: rs, MaxBatch: 16, ScoreTimeout: 500 * time.Millisecond,
		AlertInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewUnstartedServer(s.Handler())
	ts.Listener = smallSendBuffer{ts.Listener}
	ts.Start()
	defer ts.Close()
	goroutines := runtime.NumGoroutine()

	tr := &http.Transport{DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
		c, err := (&net.Dialer{}).DialContext(ctx, network, addr)
		if tc, ok := c.(*net.TCPConn); ok {
			tc.SetReadBuffer(4096) //nolint:errcheck // a hint, as above
		}
		return c, err
	}}
	body, _ := json.Marshal(map[string]any{"transactions": txs, "explain_all": true})
	resp, err := (&http.Client{Transport: tr}).Post(ts.URL+"/v1/score", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explain_all score = %d", resp.StatusCode)
	}
	id := resp.Header.Get("X-Request-Id")

	// Read nothing until the server has given up on the response.
	waitFor(t, "the score response to be aborted", func() bool { return s.mScoreAborted.Value() == 1 })
	n, err := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err == nil {
		t.Fatalf("read a complete-looking %d B body from an aborted response", n)
	}
	waitFor(t, "the aborted request to be counted", func() bool {
		return s.httpCounter("/v1/score", http.StatusOK).Value() == 1
	})
	spans := func() int {
		ended := 0
		for _, rec := range s.Tracer().Snapshot() {
			for _, a := range rec.Attrs[:rec.NAttrs] {
				if rec.Name == "request.score" && a.Key == "id" && a.Value() == id {
					ended++
				}
			}
		}
		return ended
	}
	waitFor(t, "the request span to end", func() bool { return spans() > 0 })
	if got := spans(); got != 1 {
		t.Fatalf("request span %s ended %d times, want once", id, got)
	}
	if got := s.mScoreAborted.Value(); got != 1 {
		t.Fatalf("abort counter = %d, want 1", got)
	}
	tr.CloseIdleConnections()
	waitFor(t, "the goroutine count to settle", func() bool { return runtime.NumGoroutine() <= goroutines })
}

// TestFeedbackQueuedBehindRefineGivesUp: a feedback POST queued on the
// control-plane lock behind a refinement whose expert never answers gives up
// at its own deadline: 503 timeout with its request id in the envelope, from
// the request goroutine itself — once it is answered no goroutine of it is
// left parked on the lock, while the refinement is still running. Released
// afterwards, the refinement publishes and the feedback was not appended.
func TestFeedbackQueuedBehindRefineGivesUp(t *testing.T) {
	// No alert ticker: its goroutines would blur the goroutine count.
	s, ts, finishRefine := queueBehindRefine(t, Config{FeedbackTimeout: 50 * time.Millisecond, AlertInterval: -1})
	// A connection of its own, closed with the response, so the count below
	// returns to the baseline exactly when the handler is gone.
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	goroutines := runtime.NumGoroutine()

	raw, _ := json.Marshal(map[string]any{"transactions": []any{
		map[string]any{"attrs": map[string]any{"amount": 20, "hour": 3}, "score": 10, "label": "legit"},
	}})
	start := time.Now()
	resp, err := client.Post(ts.URL+"/v1/feedback", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	var env errorResponse
	if err := json.Unmarshal([]byte(readAll(t, resp)), &env); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || env.Error.Code != CodeTimeout ||
		!strings.HasPrefix(env.Error.RequestID, "req-") || env.Error.RequestID != resp.Header.Get("X-Request-Id") {
		t.Fatalf("feedback queued behind a refine: %d %+v (X-Request-Id %q), want 503 timeout carrying the request id",
			resp.StatusCode, env.Error, resp.Header.Get("X-Request-Id"))
	}
	if elapsed < 50*time.Millisecond || elapsed > 5*time.Second {
		t.Fatalf("queued feedback answered after %v, want at its 50ms deadline", elapsed)
	}
	waitFor(t, "the goroutine count to settle while the refine still runs",
		func() bool { return runtime.NumGoroutine() <= goroutines })

	finishRefine()
	if n, v := s.feedbackLen(), s.Version(); n != 1 || v != 2 {
		t.Fatalf("after the queued feedback gave up: %d feedback tx, version %d; want 1 and the refine's 2", n, v)
	}
}

// TestRefineDeadlineStopsSession: an AutoAccept refinement over a fixture
// whose full run takes far longer than RefineTimeout (20 000 rows: ~2.4 s
// on one x86-64 core, ~50x the deadline) answers 503 timeout — the session
// stops at its next expert query instead of running to the end with the
// control-plane lock held. Right after the 503 the lock is free and nothing
// was published.
func TestRefineDeadlineStopsSession(t *testing.T) {
	ds := datagen.Generate(datagen.Config{Size: 20000, Seed: 1})
	s, ts := newTestServer(t, Config{Schema: ds.Schema, Rules: datagen.InitialRules(ds, 20, 1),
		RefineTimeout: 50 * time.Millisecond, AlertInterval: -1})
	s.mu.Lock()
	err := s.commit(feedbackRecord(ds.Rel))
	s.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	code, body := postJSON(t, ts.URL+"/v1/refine", nil, nil)
	if code != http.StatusServiceUnavailable || !strings.Contains(body, `"code":"timeout"`) {
		t.Fatalf("refine past its deadline: %d %s, want the 503 timeout envelope", code, body)
	}
	t.Logf("503 after %v", time.Since(start))
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.mu.lockCtx(ctx); err != nil {
		t.Fatalf("the control-plane lock is still held after the refine's 503: %v", err)
	}
	s.mu.Unlock()
	if v := s.Version(); v != 1 {
		t.Fatalf("a timed-out refine published: version %d, want 1", v)
	}
}
