package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/relation"
	"repro/internal/rules"
	"repro/internal/trace"
)

// TestAppendJSONString pins the hand-rolled string escaper against
// encoding/json across the cases that matter: clean ASCII (the fast path),
// quotes, backslashes, every control character, multi-byte UTF-8 and
// invalid UTF-8 (which both encoders replace with U+FFFD).
func TestAppendJSONString(t *testing.T) {
	cases := []string{
		"",
		"amount",
		`rule "7" says \ hello`,
		"tab\there\nnewline\rcr",
		"\x00\x01\x1f",
		"caffè ☕ 🚨",
		"bad\xffutf8",
		strings.Repeat("a", 300),
	}
	for _, s := range cases {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		got := appendJSONString(nil, s)
		// encoding/json additionally escapes <, > and & for HTML safety; our
		// inputs never contain them (attribute names and rule texts come from
		// the parser's charset), so byte equality holds for these cases.
		if string(got) != string(want) {
			t.Fatalf("appendJSONString(%q) = %s, want %s", s, got, want)
		}
	}
}

// TestScoreEncodeDifferential proves the hand-rolled score encoder emits
// exactly the documented wire shape: the response decodes into the wire
// structs and re-encodes to the same canonical JSON, for plain, explain and
// explain_all modes.
func TestScoreEncodeDifferential(t *testing.T) {
	schema := testSchema(t)
	_, ts := newTestServer(t, Config{Schema: schema, Rules: mustRules(t, schema, "amount >= 100", "hour <= 6 && score >= 50")})
	for _, mode := range []map[string]any{
		{},
		{"explain": true},
		{"explain_all": true},
	} {
		body := map[string]any{"transactions": []map[string]any{tx(250, 12, 0), tx(50, 3, 80), tx(10, 22, 0)}}
		for k, v := range mode {
			body[k] = v
		}
		code, raw := postJSON(t, ts.URL+"/v1/score", body, nil)
		if code != http.StatusOK {
			t.Fatalf("%v: score = %d: %s", mode, code, raw)
		}
		var resp scoreResponse
		if err := json.Unmarshal([]byte(raw), &resp); err != nil {
			t.Fatalf("%v: hand-encoded response does not decode as scoreResponse: %v\n%s", mode, err, raw)
		}
		re, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		// Round-trip stability: decode(hand) == decode(encode(decode(hand))).
		var a, b any
		if err := json.Unmarshal([]byte(raw), &a); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(re, &b); err != nil {
			t.Fatal(err)
		}
		aj, _ := json.Marshal(a)
		bj, _ := json.Marshal(b)
		if string(aj) != string(bj) {
			t.Fatalf("%v: hand-rolled encoding is not wire-identical to the struct form\n hand: %s\nstruct: %s", mode, aj, bj)
		}
		if resp.Count != 3 || len(resp.Flagged) != 3 {
			t.Fatalf("%v: count/flagged = %d/%d, want 3/3", mode, resp.Count, len(resp.Flagged))
		}
	}
}

// TestScoreContentLength pins the exact-Content-Length contract of a score
// response that fits in one chunk (every plain and explain batch of ordinary
// size); only a response larger than scoreChunk goes out chunked, see
// TestScoreStreamedBody.
func TestScoreContentLength(t *testing.T) {
	schema := testSchema(t)
	_, ts := newTestServer(t, Config{Schema: schema, Rules: mustRules(t, schema, "amount >= 100")})
	resp, err := http.Post(ts.URL+"/v1/score", "application/json",
		strings.NewReader(`{"transactions":[{"attrs":{"amount":250,"hour":3},"score":0}],"explain":true}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body := readAll(t, resp)
	cl := resp.Header.Get("Content-Length")
	if cl == "" {
		t.Fatal("score response carries no Content-Length")
	}
	if n, _ := strconv.Atoi(cl); n != len(body) {
		t.Fatalf("Content-Length %s != body length %d", cl, len(body))
	}
}

// TestWriteJSONMarshalFailure pins the writeJSON bugfix: a value the encoder
// cannot marshal (NaN) must produce a complete 500 error envelope — not a
// 200 header followed by torn JSON.
func TestWriteJSONMarshalFailure(t *testing.T) {
	schema := testSchema(t)
	s, _ := newTestServer(t, Config{Schema: schema, Rules: mustRules(t, schema, "amount >= 100")})
	rec := httptest.NewRecorder()
	s.writeJSON(rec, http.StatusOK, map[string]float64{"oops": math.NaN()})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("marshal failure answered %d, want 500", rec.Code)
	}
	var env errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("fallback envelope is not valid JSON: %v\n%s", err, rec.Body.Bytes())
	}
	if env.Error.Code != CodeInternal {
		t.Fatalf("fallback code = %q, want %q", env.Error.Code, CodeInternal)
	}
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
		t.Fatalf("fallback Content-Length %q != body length %d", cl, rec.Body.Len())
	}
}

// TestScoreEncodeAllocs pins the request-handling allocation budgets of the
// plain and explain score paths (satellite of the 277-allocs/op single-score
// finding): the whole in-process handler round trip — decode, eval, encode —
// must stay within a budget that rules out per-rule/per-check allocation
// regressions. Measured directly against the mux to exclude client and
// socket noise.
func TestScoreEncodeAllocs(t *testing.T) {
	schema := testSchema(t)
	s, _ := newTestServer(t, Config{Schema: schema, Rules: mustRules(t, schema,
		"amount >= 100", "hour <= 6 && score >= 50", "amount >= 9000", "hour >= 22")})
	h := s.Handler()
	run := func(body string) func() {
		return func() {
			req := httptest.NewRequest(http.MethodPost, "/v1/score", strings.NewReader(body))
			req.Header.Set("Content-Type", "application/json")
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("score = %d: %s", rec.Code, rec.Body.String())
			}
		}
	}
	plain := run(`{"transactions":[{"attrs":{"amount":250,"hour":3},"score":0}]}`)
	explain := run(`{"transactions":[{"attrs":{"amount":250,"hour":3},"score":80}],"explain":true}`)
	explainAll := run(`{"transactions":[{"attrs":{"amount":250,"hour":3},"score":80}],"explain_all":true}`)
	plain()
	explain()
	explainAll() // warm pools
	// The remaining allocations are httptest plumbing, request decode
	// (map[string]json.RawMessage per tx) and per-request bookkeeping — all
	// independent of rule count and check count. The pre-fix explain path
	// allocated per rule AND per check per tuple; with 4 rules these budgets
	// would already be blown by a regression.
	if n := testing.AllocsPerRun(50, plain); n > 100 {
		t.Fatalf("plain single score = %.0f allocs/run, want <= 100", n)
	}
	if n := testing.AllocsPerRun(50, explain); n > 110 {
		t.Fatalf("explain single score = %.0f allocs/run, want <= 110", n)
	}
	if n := testing.AllocsPerRun(50, explainAll); n > 120 {
		t.Fatalf("explain_all single score = %.0f allocs/run, want <= 120", n)
	}

	// A multi-chunk explain_all answer is never held whole: the bytes a
	// request allocates stay within a few chunks, and doubling the batch
	// grows them by a small fraction of what it adds to the answer (before
	// streaming, a request allocated several times its answer).
	if raceEnabled {
		return // pooled chunk buffers are dropped at random under -race
	}
	schema, rs, txs := explainAllFixture(t, 32)
	big, _ := newTestServer(t, Config{Schema: schema, Rules: rs, MaxBatch: 32})
	bh := big.Handler()
	perRun := func(n int) (alloc float64, resp int) {
		body, _ := json.Marshal(map[string]any{"transactions": txs[:n], "explain_all": true})
		run := func() {
			w := &discardWriter{h: http.Header{}}
			bh.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/score", bytes.NewReader(body)))
			resp = w.n
		}
		run()
		run() // warm the pools
		const runs = 20
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&m1)
		return float64(m1.TotalAlloc-m0.TotalAlloc) / runs, resp
	}
	a16, r16 := perRun(16)
	a32, r32 := perRun(32)
	if r16 <= 4*scoreChunk {
		t.Fatalf("16-tx explain_all answer is %d B, want a multi-chunk one", r16)
	}
	if a32 > 4*scoreChunk {
		t.Fatalf("32-tx explain_all (%d B answer) allocates %.0f B/run, want <= %d (4 chunks)", r32, a32, 4*scoreChunk)
	}
	if a32-a16 > float64(r32-r16)/10 {
		t.Fatalf("doubling the batch grew allocation %.0f -> %.0f B/run for an answer of %d -> %d B: it follows the answer size",
			a16, a32, r16, r32)
	}

	// A 64-transaction batch on BenchmarkServeScore's fixture (datagen seed
	// 1, 2 000 rows, 50 rules) measured 3 162 (plain), 3 164 (explain) and
	// 3 170 (explain_all) allocs per request, the same on every run. The
	// ceiling leaves ~10 % headroom; it should only move down.
	ds := datagen.Generate(datagen.Config{Size: 2000, Seed: 1})
	b64, _ := newTestServer(t, Config{Schema: ds.Schema, Rules: datagen.InitialRules(ds, 50, 1)})
	h64 := b64.Handler()
	wire := make([]map[string]any, 64)
	for i := range wire {
		wire[i] = map[string]any{"attrs": renderAttrs(ds.Schema, ds.Rel, i), "score": ds.Rel.Score(i)}
	}
	for _, mode := range []string{"", "explain", "explain_all"} {
		req := map[string]any{"transactions": wire}
		if mode != "" {
			req[mode] = true
		}
		body, _ := json.Marshal(req)
		batch := func() {
			rec := httptest.NewRecorder()
			h64.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/score", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("batch64 %q score = %d: %s", mode, rec.Code, rec.Body.String())
			}
		}
		batch() // warm pools
		if n := testing.AllocsPerRun(50, batch); n > 3500 {
			t.Fatalf("batch64 %q score = %.0f allocs/run, want <= 3500", mode, n)
		}
	}
}

// explainAllFixture is the analyst's worst case at test size: the synthetic
// FI schema, 130 incumbent rules (the top of the paper's 10-130 range) and
// n of the generated transactions in wire form. An explain_all answer runs
// to ~70 KB per transaction, so even a small batch spans many chunks.
func explainAllFixture(t testing.TB, n int) (*relation.Schema, *rules.Set, []map[string]any) {
	t.Helper()
	ds := datagen.Generate(datagen.Config{Size: 2000, Seed: 7})
	rs := datagen.InitialRules(ds, 130, 7)
	if rs.Len() < 100 {
		t.Fatalf("fixture has %d rules, want >= 100", rs.Len())
	}
	txs := make([]map[string]any, n)
	for i := range txs {
		txs[i] = map[string]any{"attrs": renderAttrs(ds.Schema, ds.Rel, i), "score": ds.Rel.Score(i)}
	}
	return ds.Schema, rs, txs
}

// TestScoreStreamedBody: the renderer gives the same bytes whether it
// renders into one buffer (no flush) or streams scoreChunk pieces to a
// ResponseWriter, for a multi-chunk explain_all batch and for single-chunk
// explain and plain batches; the bytes decode as a scoreResponse; and the
// framing follows the size — an exact Content-Length for one chunk, chunked
// with no Content-Length beyond. Over a real connection the streamed body is
// byte-identical to the one-buffer rendering.
func TestScoreStreamedBody(t *testing.T) {
	const batch = 16
	schema, rs, txs := explainAllFixture(t, batch)
	s, ts := newTestServer(t, Config{Schema: schema, Rules: rs, MaxBatch: batch})
	wire := make([]txIn, len(txs))
	for i, tx := range txs {
		raw, _ := json.Marshal(tx)
		if err := json.Unmarshal(raw, &wire[i]); err != nil {
			t.Fatal(err)
		}
	}
	rel, err := s.relationOf(wire, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := s.state.Load()
	for _, mode := range []struct {
		name                string
		explain, explainAll bool
		chunks              bool
	}{
		{"explain_all", false, true, true},
		{"explain", true, false, false},
		{"plain", false, false, false},
	} {
		sc := new(scoreState)
		s.evaluate(trace.Span{}, st, sc, rel, mode.explain || mode.explainAll)
		one := s.appendScoreResponse(nil, nil, "req-000042", st, sc, rel, mode.explain, mode.explainAll)
		var resp scoreResponse
		if err := json.Unmarshal(one, &resp); err != nil || resp.Count != batch {
			t.Fatalf("%s: rendering does not decode as a %d-tx scoreResponse (%v)", mode.name, batch, err)
		}

		rec := httptest.NewRecorder()
		z := scoreStream{s: s, w: rec, clock: &stageClock{}}
		z.finish(s.appendScoreResponse(nil, z.flush, "req-000042", st, sc, rel, mode.explain, mode.explainAll))
		if !bytes.Equal(rec.Body.Bytes(), one) {
			t.Fatalf("%s: streamed body (%d B) differs from the one-buffer rendering (%d B)", mode.name, rec.Body.Len(), len(one))
		}
		if z.sent != mode.chunks || (len(one) > scoreChunk) != mode.chunks {
			t.Fatalf("%s: %d B response, flushed %v, want multi-chunk %v", mode.name, len(one), z.sent, mode.chunks)
		}
		if cl := rec.Header().Get("Content-Length"); mode.chunks != (cl == "") || (!mode.chunks && cl != strconv.Itoa(len(one))) {
			t.Fatalf("%s: Content-Length %q for a %d B body (multi-chunk %v)", mode.name, cl, len(one), mode.chunks)
		}
	}

	// End to end, over a connection: chunked framing, and the very bytes the
	// one-buffer rendering gives for the request id the daemon minted.
	body, _ := json.Marshal(map[string]any{"transactions": txs, "explain_all": true})
	resp, err := http.Post(ts.URL+"/v1/score", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	got := readAll(t, resp)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explain_all score = %d: %.200s", resp.StatusCode, got)
	}
	if te := resp.TransferEncoding; len(te) != 1 || te[0] != "chunked" || resp.Header.Get("Content-Length") != "" {
		t.Fatalf("multi-chunk response framing: Transfer-Encoding %v, Content-Length %q; want chunked and none",
			te, resp.Header.Get("Content-Length"))
	}
	sc := new(scoreState)
	s.evaluate(trace.Span{}, st, sc, rel, true)
	want := s.appendScoreResponse(nil, nil, resp.Header.Get("X-Request-Id"), st, sc, rel, false, true)
	if !bytes.Equal([]byte(got), want) {
		t.Fatalf("wire body (%d B) differs from the one-buffer rendering (%d B)", len(got), len(want))
	}
}

// discardWriter is a ResponseWriter that keeps the header and counts but
// drops the body, so an allocation measurement sees the daemon's buffers
// only.
type discardWriter struct {
	h http.Header
	n int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { w.n += len(b); return len(b), nil }
func (w *discardWriter) WriteHeader(int)             {}
