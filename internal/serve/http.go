package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"syscall"
	"time"

	"repro/internal/telemetry"
	"repro/internal/trace"
)

// This file is the daemon's HTTP edge: the route table, the adapter that
// applies a route's policy, the error envelope and the JSON body decoder.

// handler serves one method of a route; the error it returns is answered
// with the uniform envelope (see replyError).
type handler func(w http.ResponseWriter, r *http.Request) error

// route is one row of the route table: the policy mount applies.
type route struct {
	path string
	// span names the request span request.<span>; "" leaves the route
	// uninstrumented (no span, request id, request counter or body limit).
	span     string
	deadline time.Duration // the route's own deadline (see ownDeadline); 0 for none
	// get and post serve the accepted methods; any other answers 405.
	get, post handler
	// write marks POST as a write of replicated state, which a follower
	// refuses with 403 read_only and a Location at the leader.
	write bool
}

// Handler returns the daemon's route table: the versioned /v1 surface and
// the unversioned infrastructure endpoints (/healthz, /readyz, /metrics).
// Anything else answers the uniform 404 envelope.
func (s *Server) Handler() http.Handler {
	c := &s.cfg
	mux := http.NewServeMux()
	for _, rt := range []route{
		{path: "/v1/score", span: "score", deadline: c.ScoreTimeout, post: s.handleScore},
		{path: "/v1/rules", span: "rules", deadline: c.SwapTimeout, get: s.handleRulesGet, post: s.handleRulesPost, write: true},
		{path: "/v1/feedback", span: "feedback", deadline: c.FeedbackTimeout, post: s.handleFeedback, write: true},
		{path: "/v1/refine", span: "refine", deadline: c.RefineTimeout, post: s.handleRefine, write: true},
		{path: "/v1/stats", span: "stats", get: s.handleStats},
		{path: "/v1/schema", span: "schema", get: s.handleSchema},
		{path: "/v1/rules/health", span: "rules_health", get: s.handleRuleHealth},
		{path: "/v1/audit", span: "audit", get: s.handleAudit},
		// Alert rules are node-local on every role (DESIGN.md §17).
		{path: "/v1/alerts", span: "alerts", get: s.handleAlertsGet, post: s.handleAlertsPost},
		{path: "/v1/status", span: "status", get: s.handleStatus},
		// The replication surface (leader side; see replication.go).
		{path: "/v1/wal/segments", span: "wal_segments", get: s.handleWALSegments},
		{path: "/v1/wal/snapshot", span: "wal_snapshot", get: s.handleWALSnapshot},
		{path: "/v1/wal/stream", get: s.handleWALStream},
		// Uninstrumented: reading the trace must not add to it.
		{path: "/v1/trace", get: s.handleTrace},
		{path: "/v1/debug/slow", get: s.handleDebugSlow},
		{path: "/v1/debug/state", get: s.handleDebugState},
	} {
		mux.Handle(rt.path, s.mount(rt))
	}
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		fmt.Fprintln(w, "ok")
	})
	mux.Handle("/readyz", s.reply(s.handleReadyz))
	mux.Handle("/metrics", s.reg.Handler())
	mux.Handle("/", s.reply(func(w http.ResponseWriter, r *http.Request) error {
		return errorf(http.StatusNotFound, CodeNotFound, "no route %s %s (the API lives under /v1)", r.Method, r.URL.Path)
	}))
	return mux
}

// mount is the route adapter. It applies rt's policy in order — instrument,
// the follower's 403 on a write, the 405 with Allow, the route's deadline —
// then runs the method's handler and answers the error it returns.
func (s *Server) mount(rt route) http.Handler {
	allow := "GET"
	switch {
	case rt.get == nil:
		allow = "POST"
	case rt.post != nil:
		allow = "GET, POST"
	}
	serve := s.reply(func(w http.ResponseWriter, r *http.Request) error {
		var h handler
		switch r.Method {
		case http.MethodGet:
			h = rt.get
		case http.MethodPost:
			h = rt.post
			if h != nil && rt.write && s.follower != nil {
				w.Header().Set("Location", s.follower.leaderURL+r.URL.Path)
				return errorf(http.StatusForbidden, CodeReadOnly,
					"this node is a read-only follower; send writes to the leader at %s", s.follower.leaderURL)
			}
		}
		if h == nil {
			w.Header().Set("Allow", allow)
			return errorf(http.StatusMethodNotAllowed, CodeMethodNotAllowed, "%s is not allowed here (allow: %s)", r.Method, allow)
		}
		if rt.deadline > 0 {
			var cancel context.CancelFunc
			r, cancel = ownDeadline(w, r, rt.deadline)
			defer cancel()
		}
		return h(w, r)
	})
	if rt.span == "" {
		// Instrumented or not, a route answers through a statusWriter, so
		// replyError sees whether its response has started.
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { serve(&statusWriter{ResponseWriter: w}, r) })
	}
	return s.instrument(rt.path, rt.span, serve)
}

// reply runs h and answers the error it returns.
func (s *Server) reply(h handler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if err := h(w, r); err != nil {
			s.replyError(w, r, err)
		}
	}
}

// ownDeadline returns r under a context that ends d after the request reached
// it, and sets the connection's read and write deadlines to that same instant
// through http.ResponseController. There is no second goroutine and no
// response buffer: the handler checks the context itself at the points where
// a 503 is still possible — waiting for a worker slot or the control-plane
// lock (lockCommit), and in a refinement session before every expert query —
// and once its first byte is out the write deadline is the only bound (see
// scoreStream.write for what a write that fails then does).
func ownDeadline(w http.ResponseWriter, r *http.Request, d time.Duration) (*http.Request, context.CancelFunc) {
	ctx, cancel := context.WithTimeout(r.Context(), d)
	deadline, _ := ctx.Deadline()
	// ErrNotSupported (a writer with no connection behind it, such as an
	// httptest.ResponseRecorder) leaves the context as the only bound.
	rc := http.NewResponseController(w)
	rc.SetReadDeadline(deadline)  //nolint:errcheck // see above
	rc.SetWriteDeadline(deadline) //nolint:errcheck // see above
	return r.WithContext(ctx), cancel
}

// statusWriter records the response code: the request counter reads it, and
// replyError, to tell whether the response has started.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Unwrap lets http.ResponseController reach the connection's writer:
// ownDeadline sets the socket deadlines through it.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// reqMetaKey carries the per-request id and span through the context.
type reqMetaKey struct{}

// reqMeta is the per-request correlation state minted by instrument.
type reqMeta struct {
	id   string
	span trace.Span
}

// requestMeta returns the request's correlation metadata (zero when the
// route is uninstrumented).
func requestMeta(r *http.Request) reqMeta {
	meta, _ := r.Context().Value(reqMetaKey{}).(reqMeta)
	return meta
}

// instrument applies the body limit, mints a request id (echoed as the
// X-Request-Id header and the request_id field of JSON responses), opens a
// per-request span named request.<base> (stable across API versions), and
// counts the request by path and status code. The span id makes responses
// joinable against GET /v1/trace.
func (s *Server) instrument(path, base string, h http.Handler) http.Handler {
	name := "request." + base
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		id := requestID(s.reqSeq.Add(1))
		sp := s.tracer.Start(name)
		sp.Str("id", id)
		w.Header().Set("X-Request-Id", id)
		r = r.WithContext(context.WithValue(r.Context(), reqMetaKey{}, reqMeta{id: id, span: sp}))
		sw := &statusWriter{ResponseWriter: w}
		// Deferred, so that a response aborted mid-body (a panic with
		// http.ErrAbortHandler, see scoreStream.write) still ends its span
		// and is counted, under the status it had sent.
		defer func() {
			if sw.code == 0 {
				sw.code = http.StatusOK
			}
			sp.Int("code", int64(sw.code))
			sp.End()
			s.httpCounter(path, sw.code).Inc()
		}()
		h.ServeHTTP(sw, r)
	})
}

// requestID renders the X-Request-Id for sequence number n: "req-%06d"
// without the fmt machinery (the id is minted on every instrumented
// request, including the scoring hot path).
func requestID(n uint64) string {
	var tmp [20]byte
	digits := strconv.AppendUint(tmp[:0], n, 10)
	buf := make([]byte, 0, 4+6+len(digits))
	buf = append(buf, "req-"...)
	for pad := 6 - len(digits); pad > 0; pad-- {
		buf = append(buf, '0')
	}
	return string(append(buf, digits...))
}

// httpCounterKey keys the cached rudolf_http_requests_total counters.
type httpCounterKey struct {
	path string
	code int
}

// httpCounter returns the rudolf_http_requests_total counter for one
// {path, code} pair, resolving the formatted series name only on the first
// hit — steady state is a lock-free sync.Map read instead of a Sprintf.
func (s *Server) httpCounter(path string, code int) *telemetry.Counter {
	key := httpCounterKey{path: path, code: code}
	if c, ok := s.httpCounters.Load(key); ok {
		return c.(*telemetry.Counter)
	}
	c := s.reg.Counter(fmt.Sprintf(`rudolf_http_requests_total{path=%q,code="%d"}`, path, code))
	actual, _ := s.httpCounters.LoadOrStore(key, c)
	return actual.(*telemetry.Counter)
}

// Stable machine codes of the uniform error envelope. Clients switch on
// these, never on message text.
const (
	CodeBadRequest       = "bad_request"
	CodePayloadTooLarge  = "payload_too_large"
	CodeMethodNotAllowed = "method_not_allowed"
	CodeConflict         = "conflict"
	CodeNotFound         = "not_found"
	CodeNotReady         = "not_ready"
	CodeReadOnly         = "read_only"
	CodeTimeout          = "timeout"
	CodeUnavailable      = "unavailable"
	CodeInternal         = "internal"
)

// apiError is a failure a handler returns: the status and the body of its
// error envelope.
type apiError struct {
	status int
	errorBody
}

func (e *apiError) Error() string { return e.Message }

func errorf(status int, code, format string, args ...any) *apiError {
	return &apiError{status, errorBody{Code: code, Message: fmt.Sprintf(format, args...)}}
}

// timedOut is the 503 "timeout" of a request whose deadline passed at a
// check point, during what it names.
func timedOut(during string) *apiError {
	return errorf(http.StatusServiceUnavailable, CodeTimeout, "request deadline passed while %s", during)
}

// timeoutReplyGrace is how long a 503 "timeout" envelope may take to write
// once the request's own deadline has passed.
const timeoutReplyGrace = time.Second

// replyError writes err as the uniform error envelope (a 500 "internal"
// unless it is an *apiError), carrying the request's id so failures are
// joinable against GET /v1/trace like successes are. A timeout's socket write
// deadline has already passed, so the envelope gets timeoutReplyGrace. A
// response that has already started is logged instead.
func (s *Server) replyError(w http.ResponseWriter, r *http.Request, err error) {
	var e *apiError
	if !errors.As(err, &e) {
		e = errorf(http.StatusInternalServerError, CodeInternal, "%v", err)
	}
	if sw, ok := w.(*statusWriter); ok && sw.code != 0 {
		s.log.Warn("error after the response started", "path", r.URL.Path, "status", sw.code, "code", e.Code, "err", e.Message)
		return
	}
	if e.Code == CodeTimeout {
		http.NewResponseController(w).SetWriteDeadline(time.Now().Add(timeoutReplyGrace)) //nolint:errcheck // ErrNotSupported: no socket deadline to move
	}
	body := e.errorBody
	body.RequestID = requestMeta(r).id
	s.writeJSON(w, e.status, errorResponse{Error: body})
}

// readJSON decodes the JSON body into v. Only whitespace may follow the
// value: a body with trailing data is a bad request, not a silently
// truncated one.
func readJSON(ctx context.Context, body io.Reader, v any) error {
	dec := json.NewDecoder(body)
	if err := dec.Decode(v); err != nil {
		return bodyError(ctx, fmt.Errorf("bad JSON: %w", err))
	}
	_, err := dec.Token()
	if err == io.EOF {
		return nil
	}
	var syntax *json.SyntaxError
	if err == nil || errors.As(err, &syntax) {
		err = errors.New("bad JSON: data after the top-level value")
	}
	return bodyError(ctx, err)
}

// bodyError classifies a failure to read or parse a request body. A body
// still arriving when the read deadline or the request context runs out is a
// timeout, not a bad body.
func bodyError(ctx context.Context, err error) *apiError {
	var tooBig *http.MaxBytesError
	switch {
	case errors.Is(err, os.ErrDeadlineExceeded) || ctx.Err() != nil:
		return timedOut("reading the request body")
	case errors.As(err, &tooBig):
		return errorf(http.StatusRequestEntityTooLarge, CodePayloadTooLarge, "body exceeds %d bytes", tooBig.Limit)
	default:
		return errorf(http.StatusBadRequest, CodeBadRequest, "%v", err)
	}
}

// respBufPool holds the scratch buffers writeJSON encodes into before
// touching the ResponseWriter; see writeJSON for why the indirection exists.
var respBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// respBufMaxRetain bounds the buffer capacity returned to respBufPool, so
// one huge response does not pin its memory forever.
const respBufMaxRetain = 1 << 20

// encodeFailedEnvelope is the hand-built 500 body writeJSON falls back to
// when the response value itself fails to encode: it cannot be produced by
// the same encoder that just failed.
const encodeFailedEnvelope = `{"error":{"code":"internal","message":"response encoding failed"}}` + "\n"

// writeJSON encodes v into a pooled buffer first and only then touches the
// ResponseWriter, so an encoding failure (a bug: every response type here is
// marshalable — but silently truncated JSON would corrupt clients) becomes a
// clean 500 envelope instead of a torn body after a 200 header. The buffered
// form also yields an exact Content-Length. Write errors are classified:
// a vanished client is routine (debug), anything else is logged as a warning.
func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	buf := respBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer func() {
		if buf.Cap() <= respBufMaxRetain {
			respBufPool.Put(buf)
		}
	}()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		s.log.Error("response encoding failed", "err", err, "status", code)
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", strconv.Itoa(len(encodeFailedEnvelope)))
		w.WriteHeader(http.StatusInternalServerError)
		io.WriteString(w, encodeFailedEnvelope) //nolint:errcheck // already in the failure path
		return
	}
	s.writeBody(w, code, buf.Bytes())
}

// writeBody writes an already-encoded JSON body with an exact
// Content-Length, logging non-client-gone write errors.
func (s *Server) writeBody(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	if _, err := w.Write(body); err != nil {
		if isClientGone(err) {
			s.log.Debug("client gone before response write", "err", err)
		} else {
			s.log.Warn("response write failed", "err", err)
		}
	}
}

// isClientGone reports whether a response-write error just means the peer
// went away or stopped reading (canceled request, closed connection, a
// write deadline passed) — routine under load balancers and impatient or
// slow clients, not a server fault worth a warning.
func isClientGone(err error) bool {
	return errors.Is(err, syscall.EPIPE) ||
		errors.Is(err, os.ErrDeadlineExceeded) ||
		errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, net.ErrClosed) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded)
}
