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
