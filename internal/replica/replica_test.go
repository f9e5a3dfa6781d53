package replica

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/wal"
)

// fakeTarget records every call in order.
type fakeTarget struct {
	mu       sync.Mutex
	calls    []string
	applyErr error
}

func (f *fakeTarget) Bootstrap(seq uint64, files map[string][]byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls = append(f.calls, fmt.Sprintf("bootstrap %d %s", seq, files["state"]))
	return nil
}

func (f *fakeTarget) Apply(seq uint64, payload []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls = append(f.calls, fmt.Sprintf("apply %d %s", seq, payload))
	return f.applyErr
}

func (f *fakeTarget) log() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return slices.Clone(f.calls)
}

// fakeLeader serves the three replication endpoints. Each stream connection
// is answered by the next script entry (the last one repeats): the function
// gets the requested from and returns the status plus the raw body to send
// before the connection closes.
type fakeLeader struct {
	snapSeq, lastSeq uint64
	manifestFails    int // leading /v1/wal/segments requests answered 500

	mu      sync.Mutex
	froms   []uint64
	streams []func(from uint64) (int, []byte)
}

func frames(from, to uint64) []byte {
	var out []byte
	for seq := from; seq <= to; seq++ {
		out = wal.AppendFrame(out, seq, []byte(fmt.Sprintf(`{"n":%d}`, seq)))
	}
	return out
}

func (l *fakeLeader) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/v1/wal/segments":
		l.mu.Lock()
		fail := l.manifestFails > 0
		l.manifestFails--
		l.mu.Unlock()
		if fail {
			http.Error(w, "not yet", http.StatusInternalServerError)
			return
		}
		json.NewEncoder(w).Encode(Manifest{FirstSeq: l.snapSeq + 1, LastSeq: l.lastSeq, SnapshotSeq: l.snapSeq}) //nolint:errcheck // test
	case "/v1/wal/snapshot":
		json.NewEncoder(w).Encode(snapshotDoc{Seq: l.snapSeq, Files: map[string]string{ //nolint:errcheck // test
			"state": base64.StdEncoding.EncodeToString([]byte("snap")),
		}})
	case "/v1/wal/stream":
		from, _ := strconv.ParseUint(r.URL.Query().Get("from"), 10, 64)
		l.mu.Lock()
		l.froms = append(l.froms, from)
		script := l.streams[min(len(l.froms), len(l.streams))-1]
		l.mu.Unlock()
		code, body := script(from)
		w.WriteHeader(code)
		w.Write(body) //nolint:errcheck // test
	default:
		http.NotFound(w, r)
	}
}

// backoffLog is a slog.Handler that keeps the backoff of every
// "reconnecting" line the replicator logs.
type backoffLog struct {
	slog.Handler
	mu       sync.Mutex
	backoffs []time.Duration
}

func (b *backoffLog) Enabled(context.Context, slog.Level) bool { return true }

func (b *backoffLog) Handle(_ context.Context, rec slog.Record) error {
	rec.Attrs(func(a slog.Attr) bool {
		if a.Key == "backoff" {
			b.mu.Lock()
			b.backoffs = append(b.backoffs, a.Value.Duration())
			b.mu.Unlock()
		}
		return true
	})
	return nil
}

// run drives a replicator against leader until applied reaches stopAt (then
// cancels) or Run returns on its own.
func run(t *testing.T, leader *fakeLeader, target Target, stopAt uint64, logger *slog.Logger) (reconnects []error, err error) {
	t.Helper()
	ts := httptest.NewServer(leader)
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	rep, err := New(Config{
		LeaderURL:   ts.URL,
		Target:      target,
		Logger:      logger,
		BackoffMin:  time.Millisecond,
		BackoffMax:  8 * time.Millisecond,
		OnReconnect: func(err error) { reconnects = append(reconnects, err) },
		OnApplied: func(seq uint64) {
			if seq == stopAt {
				cancel()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	err = rep.Run(ctx)
	if ctx.Err() == context.DeadlineExceeded {
		t.Fatalf("replicator never reached seq %d (applied %d)", stopAt, rep.applied)
	}
	return reconnects, err
}

// TestBootstrapOnceThenResume: Bootstrap happens exactly once and before any
// Apply, sequence numbers are dense, and a dropped stream resumes at
// applied+1 without re-bootstrapping.
func TestBootstrapOnceThenResume(t *testing.T) {
	leader := &fakeLeader{snapSeq: 2, lastSeq: 6, streams: []func(uint64) (int, []byte){
		func(from uint64) (int, []byte) { return http.StatusOK, frames(from, 4) },
		func(from uint64) (int, []byte) { return http.StatusOK, frames(from, 6) },
	}}
	target := &fakeTarget{}
	if _, err := run(t, leader, target, 6, nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []string{
		"bootstrap 2 snap",
		`apply 3 {"n":3}`, `apply 4 {"n":4}`, `apply 5 {"n":5}`, `apply 6 {"n":6}`,
	}
	if got := target.log(); !slices.Equal(got, want) {
		t.Fatalf("target calls = %q, want %q", got, want)
	}
	if want := []uint64{3, 5}; !slices.Equal(leader.froms, want) {
		t.Fatalf("stream requests from = %v, want %v", leader.froms, want)
	}
}

// TestCorruptFrameIsNotApplied: a frame whose CRC does not match its payload
// breaks the connection instead of reaching the Target; the retry resumes at
// the same sequence number.
func TestCorruptFrameIsNotApplied(t *testing.T) {
	leader := &fakeLeader{lastSeq: 2, streams: []func(uint64) (int, []byte){
		func(uint64) (int, []byte) {
			bad := frames(2, 2)
			bad[len(bad)-3] ^= 0x01 // flip a payload bit under the recorded CRC
			return http.StatusOK, append(frames(1, 1), bad...)
		},
		func(from uint64) (int, []byte) { return http.StatusOK, frames(from, 2) },
	}}
	target := &fakeTarget{}
	reconnects, err := run(t, leader, target, 2, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []string{"bootstrap 0 ", `apply 1 {"n":1}`, `apply 2 {"n":2}`}
	if got := target.log(); !slices.Equal(got, want) {
		t.Fatalf("target calls = %q, want %q", got, want)
	}
	if len(reconnects) != 1 || !strings.Contains(reconnects[0].Error(), "corrupt frame for seq 2") {
		t.Fatalf("reconnect errors = %v, want one corrupt-frame rejection", reconnects)
	}
	if want := []uint64{1, 2}; !slices.Equal(leader.froms, want) {
		t.Fatalf("stream requests from = %v, want %v", leader.froms, want)
	}
}

// TestStreamConflictIsContinuityLost: a 409 on the stream ends Run with
// ErrContinuityLost instead of a retry.
func TestStreamConflictIsContinuityLost(t *testing.T) {
	leader := &fakeLeader{lastSeq: 9, streams: []func(uint64) (int, []byte){
		func(uint64) (int, []byte) { return http.StatusConflict, []byte(`{"error":{"code":"conflict"}}`) },
	}}
	target := &fakeTarget{}
	reconnects, err := run(t, leader, target, 0, nil)
	if !errors.Is(err, ErrContinuityLost) {
		t.Fatalf("Run = %v, want ErrContinuityLost", err)
	}
	if len(reconnects) != 0 || len(leader.froms) != 1 {
		t.Fatalf("%d reconnects, %d stream requests; want no retry", len(reconnects), len(leader.froms))
	}
}

// TestTargetRejectionIsFatal: an Apply error stops the loop — retrying a
// record the state machine refused cannot help.
func TestTargetRejectionIsFatal(t *testing.T) {
	leader := &fakeLeader{lastSeq: 1, streams: []func(uint64) (int, []byte){
		func(from uint64) (int, []byte) { return http.StatusOK, frames(from, 1) },
	}}
	target := &fakeTarget{applyErr: errors.New("schema mismatch")}
	if _, err := run(t, leader, target, 0, nil); err == nil || !strings.Contains(err.Error(), "schema mismatch") {
		t.Fatalf("Run = %v, want the Target's rejection", err)
	}
}

// TestBackoffResetsAfterProgress: consecutive failures double the backoff up
// to the cap; a connection that applied something resets it to the minimum.
func TestBackoffResetsAfterProgress(t *testing.T) {
	leader := &fakeLeader{lastSeq: 2, manifestFails: 5, streams: []func(uint64) (int, []byte){
		func(from uint64) (int, []byte) { return http.StatusOK, frames(from, 1) },
		func(from uint64) (int, []byte) { return http.StatusOK, frames(from, 2) },
	}}
	logs := &backoffLog{}
	if _, err := run(t, leader, &fakeTarget{}, 2, slog.New(logs)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	ms := time.Millisecond
	if want := []time.Duration{ms, 2 * ms, 4 * ms, 8 * ms, 8 * ms, ms}; !slices.Equal(logs.backoffs, want) {
		t.Fatalf("backoffs = %v, want %v (doubling to the cap, reset by the connection that applied seq 1)", logs.backoffs, want)
	}
}
