package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/rules"
	"repro/internal/testutil"
)

// scoreDirect drives the score pipeline with no HTTP in between: it returns
// the rendered response, or the error the pipeline answered instead.
func scoreDirect(s *Server, id string, body []byte) ([]byte, error) {
	var out []byte
	rest, err := s.score(context.Background(), bytes.NewReader(body), id, new(scoreState),
		func(b []byte) []byte { out = append(out, b...); return b[:0] })
	return append(out, rest...), err
}

// TestScorePipelineMatchesHandler: the score pipeline, driven directly, gives
// the very bytes POST /v1/score answers for the same body and request id, and
// for a body it refuses, the same status, code and message as the envelope.
// Schemas, rule sets and batches are seeded random ones.
func TestScorePipelineMatchesHandler(t *testing.T) {
	const maxBatch = 16
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		schema := testutil.RandomSchema(rng)
		rel := testutil.RandomRelation(rng, schema, maxBatch+1)
		// A publish stores rule texts, so only rules that parse back qualify
		// (an empty condition renders as "false", which does not).
		rs := rules.NewSet()
		for rs.Len() < 1+int(seed) {
			if r := testutil.RandomRule(rng, schema); !strings.Contains(r.Format(schema), "false") {
				rs.Add(r)
			}
		}
		s, _ := newTestServer(t, Config{Schema: schema, Rules: rs, MaxBatch: maxBatch})
		h := s.Handler()
		txs := make([]map[string]any, rel.Len())
		for i := range txs {
			txs[i] = map[string]any{"attrs": renderAttrs(schema, rel, i), "score": rel.Score(i)}
		}
		batch := func(n int, mode string) string {
			req := map[string]any{"transactions": txs[:n]}
			if mode != "" {
				req[mode] = true
			}
			raw, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			return string(raw)
		}
		n := 1 + rng.Intn(maxBatch)
		for _, tc := range []struct {
			name, body string
			status     int
		}{
			{"plain", batch(n, ""), http.StatusOK},
			{"explain", batch(n, "explain"), http.StatusOK},
			{"explain_all", batch(n, "explain_all"), http.StatusOK},
			{"single", `{"attrs":` + mustJSON(t, txs[0]["attrs"]) + `,"score":3}`, http.StatusOK},
			{"malformed", `{"transactions":[{"attrs":`, http.StatusBadRequest},
			{"trailing", batch(1, "") + " {}", http.StatusBadRequest},
			{"empty", `{"transactions":[]}`, http.StatusBadRequest},
			{"over max batch", batch(maxBatch+1, ""), http.StatusRequestEntityTooLarge},
			{"unknown attr", `{"attrs":{"no such attribute":1}}`, http.StatusBadRequest},
		} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/score", strings.NewReader(tc.body)))
			if rec.Code != tc.status {
				t.Fatalf("seed %d %s: handler answered %d (%s), want %d", seed, tc.name, rec.Code, rec.Body.Bytes(), tc.status)
			}
			id := rec.Header().Get("X-Request-Id")
			got, err := scoreDirect(s, id, []byte(tc.body))
			if rec.Code == http.StatusOK {
				if err != nil || !bytes.Equal(got, rec.Body.Bytes()) {
					t.Fatalf("seed %d %s: pipeline gave %q (err %v), handler %q", seed, tc.name, got, err, rec.Body.Bytes())
				}
				continue
			}
			var env errorResponse
			if jerr := json.Unmarshal(rec.Body.Bytes(), &env); jerr != nil {
				t.Fatalf("seed %d %s: handler body %q is not an envelope: %v", seed, tc.name, rec.Body.Bytes(), jerr)
			}
			var ae *apiError
			if !errors.As(err, &ae) || len(got) != 0 {
				t.Fatalf("seed %d %s: handler answered %d, pipeline gave %q and err %v", seed, tc.name, rec.Code, got, err)
			}
			if ae.status != rec.Code || ae.Code != env.Error.Code || ae.Message != env.Error.Message || env.Error.RequestID != id {
				t.Fatalf("seed %d %s: pipeline error %d %+v, handler %d %+v", seed, tc.name, ae.status, ae.errorBody, rec.Code, env.Error)
			}
		}
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestBodyTrailingData: a JSON request body is one value. Anything but
// whitespace after it is a 400 bad_request that changes nothing, not a
// request whose tail is silently dropped; a trailing newline is fine.
func TestBodyTrailingData(t *testing.T) {
	schema := testSchema(t)
	s, ts := newTestServer(t, Config{Schema: schema, Rules: mustRules(t, schema, "amount >= 100")})
	feedback := `{"transactions":[{"attrs":{"amount":150,"hour":3},"score":10,"label":"fraud"}]}`
	score := `{"attrs":{"amount":150,"hour":3},"score":10}`
	publish := `{"rules":["amount >= 50"]}`
	for _, tc := range []struct {
		path, body string
		status     int
	}{
		{"/v1/feedback", feedback + feedback, http.StatusBadRequest},
		{"/v1/feedback", feedback + "]", http.StatusBadRequest},
		{"/v1/score", score + " nonsense", http.StatusBadRequest},
		{"/v1/score", score + "{}", http.StatusBadRequest},
		{"/v1/rules", publish + `{"rules":[]}`, http.StatusBadRequest},
		{"/v1/feedback", feedback + "\n", http.StatusOK},
		{"/v1/score", score + "\n", http.StatusOK},
		{"/v1/rules", publish + " \r\n\t\n", http.StatusOK},
	} {
		version, rows := s.Version(), s.feedbackLen()
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		body := readAll(t, resp)
		if resp.StatusCode != tc.status {
			t.Fatalf("POST %s %q = %d (%s), want %d", tc.path, tc.body, resp.StatusCode, body, tc.status)
		}
		if tc.status == http.StatusOK {
			continue
		}
		var env errorResponse
		if err := json.Unmarshal([]byte(body), &env); err != nil || env.Error.Code != CodeBadRequest {
			t.Fatalf("POST %s %q: body %s, want the %s envelope", tc.path, tc.body, body, CodeBadRequest)
		}
		if s.Version() != version || s.feedbackLen() != rows {
			t.Fatalf("POST %s %q: refused, yet version %d -> %d and feedback %d -> %d rows",
				tc.path, tc.body, version, s.Version(), rows, s.feedbackLen())
		}
	}
}
