package serve

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestErrorAfterResponseStarted: an error a handler returns after its first
// byte is logged, not written as an envelope behind the body — on an
// uninstrumented route as on an instrumented one.
func TestErrorAfterResponseStarted(t *testing.T) {
	s, _ := newTestServer(t, Config{Schema: testSchema(t)})
	for _, span := range []string{"", "probe"} {
		h := s.mount(route{path: "/v1/probe", span: span, get: func(w http.ResponseWriter, _ *http.Request) error {
			w.Write([]byte("partial")) //nolint:errcheck // a recorder does not fail
			return errors.New("failed mid-body")
		}})
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/probe", nil))
		if rec.Code != http.StatusOK || rec.Body.String() != "partial" {
			t.Fatalf("span %q: answered %d %q, want the started 200 body alone", span, rec.Code, rec.Body.String())
		}
	}
}
