package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rulestats"
)

// durableConfig is a Config pointed at dir with fsync "always" and periodic
// snapshots disabled, so tests control exactly when snapshots happen.
func durableConfig(t testing.TB, dir string) Config {
	t.Helper()
	schema := testSchema(t)
	return Config{
		Schema:           schema,
		Rules:            mustRules(t, schema, "amount >= 100"),
		DataDir:          dir,
		Fsync:            "always",
		SnapshotInterval: -1,
	}
}

// checkFreshHealth asserts that a rebooted server's GET /v1/rules/health
// starts a fresh epoch at the replayed version: nothing scored since boot,
// whatever the previous process scored.
func checkFreshHealth(t *testing.T, s *Server, wantVersion int) {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	var health rulestats.Snapshot
	if code := getJSON(t, ts.URL+"/v1/rules/health", &health); code != http.StatusOK {
		t.Fatalf("GET /v1/rules/health after restart = %d", code)
	}
	if health.Version != wantVersion || health.TotalTx != 0 {
		t.Fatalf("/v1/rules/health after restart = version %d, %d scored; want version %d, 0 scored",
			health.Version, health.TotalTx, wantVersion)
	}
}

// TestDurableRestart: feedback and publishes acked before a clean Close are
// all present after a reopen of the same data directory — and the restored
// state wins over whatever Config.Rules the second boot passes.
func TestDurableRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(t, dir)
	s, ts := newTestServer(t, cfg)

	// Publish a second version and ingest feedback.
	code, body := postJSON(t, ts.URL+"/v1/rules",
		rulesSwapRequest{Rules: []string{"amount >= 100", "hour >= 22"}, Comment: "tighten"}, nil)
	if code != http.StatusOK {
		t.Fatalf("POST /v1/rules = %d: %s", code, body)
	}
	fb := map[string]any{"transactions": []map[string]any{
		{"attrs": map[string]any{"amount": 150, "hour": 23}, "score": 10, "label": "fraud"},
		{"attrs": map[string]any{"amount": 20, "hour": 3}, "score": 2, "label": "legit"},
		{"attrs": map[string]any{"amount": 80, "hour": 12}, "score": 5, "label": "unlabeled"},
	}}
	if code, body := postJSON(t, ts.URL+"/v1/feedback", fb, nil); code != http.StatusOK {
		t.Fatalf("POST /v1/feedback = %d: %s", code, body)
	}
	if code, body := postJSON(t, ts.URL+"/v1/score", tx(150, 23, 10), nil); code != http.StatusOK {
		t.Fatalf("POST /v1/score = %d: %s", code, body)
	}
	wantVersion, wantFeedback := s.Version(), s.feedbackLen()
	if wantVersion != 2 || wantFeedback != 3 {
		t.Fatalf("pre-restart state = version %d, feedback %d; want 2, 3", wantVersion, wantFeedback)
	}
	wantRules := s.Rules().Len()
	wantHist := s.hist.Len()
	v1, _ := s.hist.Latest()
	ts.Close()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Second boot: different Config.Rules must lose to the restored state.
	cfg2 := durableConfig(t, dir)
	cfg2.Rules = mustRules(t, cfg2.Schema, "hour <= 1")
	s2, err := New(cfg2)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if s2.Version() != wantVersion {
		t.Fatalf("restored version = %d, want %d", s2.Version(), wantVersion)
	}
	if s2.feedbackLen() != wantFeedback {
		t.Fatalf("restored feedback = %d, want %d", s2.feedbackLen(), wantFeedback)
	}
	if s2.Rules().Len() != wantRules {
		t.Fatalf("restored rules = %d, want %d (Config.Rules must not win)", s2.Rules().Len(), wantRules)
	}
	if s2.hist.Len() != wantHist {
		t.Fatalf("restored history length = %d, want %d", s2.hist.Len(), wantHist)
	}
	// The version record is restored verbatim: same id, timestamp, comment.
	v2, ok := s2.hist.Latest()
	if !ok || v2.ID != v1.ID || !v2.Time.Equal(v1.Time) || v2.Comment != v1.Comment {
		t.Fatalf("restored latest version = %+v, want verbatim %+v", v2, v1)
	}
	checkFreshHealth(t, s2, wantVersion)
}

// TestDurableCrashRecovery: the same guarantee without Close — the original
// server is simply abandoned, simulating kill -9. Under fsync "always" every
// acked record must survive.
func TestDurableCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, durableConfig(t, dir))
	for i := 0; i < 3; i++ {
		code, body := postJSON(t, ts.URL+"/v1/rules",
			rulesSwapRequest{Rules: []string{fmt.Sprintf("amount >= %d", 100+i)}}, nil)
		if code != http.StatusOK {
			t.Fatalf("publish %d = %d: %s", i, code, body)
		}
	}
	fb := map[string]any{"transactions": []map[string]any{
		{"attrs": map[string]any{"amount": 500, "hour": 1}, "score": 9, "label": "fraud"},
	}}
	if code, body := postJSON(t, ts.URL+"/v1/feedback", fb, nil); code != http.StatusOK {
		t.Fatalf("feedback = %d: %s", code, body)
	}
	if code, body := postJSON(t, ts.URL+"/v1/score", tx(500, 1, 9), nil); code != http.StatusOK {
		t.Fatalf("score = %d: %s", code, body)
	}
	wantVersion, wantFeedback := s.Version(), s.feedbackLen()
	ts.Close()
	// No s.Close(): crash.

	s2, err := New(durableConfig(t, dir))
	if err != nil {
		t.Fatalf("recovery boot: %v", err)
	}
	defer s2.Close()
	if s2.Version() != wantVersion || s2.feedbackLen() != wantFeedback {
		t.Fatalf("recovered state = version %d, feedback %d; want %d, %d",
			s2.Version(), s2.feedbackLen(), wantVersion, wantFeedback)
	}
	checkFreshHealth(t, s2, wantVersion)
}

// TestDurableSnapshot: a snapshot bounds replay (WAL segments pruned, the
// replayed-record count shrinks) without changing the recovered state, and a
// crash mid-restore after the snapshot still recovers post-snapshot records
// from the WAL.
func TestDurableSnapshot(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(t, dir)
	cfg.WALSegmentBytes = 1 // rotate every record so Prune can collect them
	s, ts := newTestServer(t, cfg)
	for i := 0; i < 4; i++ {
		fb := map[string]any{"transactions": []map[string]any{
			{"attrs": map[string]any{"amount": 200 + i, "hour": 2}, "score": 3, "label": "fraud"},
		}}
		if code, body := postJSON(t, ts.URL+"/v1/feedback", fb, nil); code != http.StatusOK {
			t.Fatalf("feedback %d = %d: %s", i, code, body)
		}
	}
	if err := s.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	// Snapshot at an unchanged sequence is a no-op, not an error.
	if err := s.Snapshot(); err != nil {
		t.Fatalf("repeat Snapshot: %v", err)
	}
	snaps, err := filepath.Glob(filepath.Join(dir, snapPrefix+"*"))
	if err != nil || len(snaps) != 1 {
		t.Fatalf("snapshot dirs = %v (err %v), want exactly one", snaps, err)
	}
	// Post-snapshot traffic lands only in the WAL.
	fb := map[string]any{"transactions": []map[string]any{
		{"attrs": map[string]any{"amount": 999, "hour": 4}, "score": 8, "label": "legit"},
	}}
	if code, body := postJSON(t, ts.URL+"/v1/feedback", fb, nil); code != http.StatusOK {
		t.Fatalf("post-snapshot feedback = %d: %s", code, body)
	}
	wantFeedback := s.feedbackLen()
	ts.Close()
	// Crash without Close.

	s2, err := New(durableConfig(t, dir))
	if err != nil {
		t.Fatalf("recovery boot: %v", err)
	}
	defer s2.Close()
	if s2.feedbackLen() != wantFeedback {
		t.Fatalf("recovered feedback = %d, want %d (snapshot + WAL suffix)", s2.feedbackLen(), wantFeedback)
	}
	// Replay after the snapshot must be bounded: far fewer records than the
	// five feedback batches + initial publish written in total.
	if v, _ := s2.Registry().Value("rudolf_wal_replayed_records_total"); v > 2 {
		t.Fatalf("replayed records after snapshot = %v; want <= 2", v)
	}
}

// TestDurableFirstBootPublishesInitialRules: the very first boot writes the
// initial rule set as version 1, so a second boot with no Config.Rules still
// restores it.
func TestDurableFirstBootPublishesInitialRules(t *testing.T) {
	dir := t.TempDir()
	s, err := New(durableConfig(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	if s.Version() != 1 || s.Rules().Len() != 1 {
		t.Fatalf("first boot state = version %d, %d rules; want 1, 1", s.Version(), s.Rules().Len())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	cfg := durableConfig(t, dir)
	cfg.Rules = nil // nothing supplied: the restored version 1 must win
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Version() != 1 || s2.Rules().Len() != 1 {
		t.Fatalf("second boot state = version %d, %d rules; want restored 1, 1", s2.Version(), s2.Rules().Len())
	}
}

// TestDurableRejectsCorruptMidWAL: corruption before the final record fails
// the boot loudly instead of silently dropping acked state.
func TestDurableRejectsCorruptMidWAL(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, durableConfig(t, dir))
	for i := 0; i < 3; i++ {
		fb := map[string]any{"transactions": []map[string]any{
			{"attrs": map[string]any{"amount": 300, "hour": 5}, "score": 1, "label": "fraud"},
		}}
		if code, _ := postJSON(t, ts.URL+"/v1/feedback", fb, nil); code != http.StatusOK {
			t.Fatalf("feedback %d failed", i)
		}
	}
	ts.Close()
	s.Close()

	segs, err := filepath.Glob(filepath.Join(dir, "wal", "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments found: %v %v", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/3] ^= 0xFF // corrupt well before the final record
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(durableConfig(t, dir)); err == nil {
		t.Fatal("New succeeded over a corrupt mid-WAL record; want a loud failure")
	} else if !strings.Contains(err.Error(), "torn tail") {
		t.Fatalf("error %q does not explain the refusal", err)
	}
}

// TestDurableRejectsPrunedWALGap: when the newest snapshot's manifest is
// unreadable, boot falls back to an older snapshot (here: none), and the WAL
// no longer reaches back to it — its early segments were pruned behind the
// lost snapshot. Replaying the surviving suffix onto that older state would
// silently drop acknowledged feedback and publishes; boot must fail and name
// both sequence numbers. After a clean Close the surviving log is one empty
// segment; after a crash it still holds the records past the first
// snapshot, a publish among them (which a replay onto empty state would
// trip over before reaching the end of the log).
func TestDurableRejectsPrunedWALGap(t *testing.T) {
	for _, crash := range []bool{false, true} {
		t.Run(fmt.Sprintf("crash=%v", crash), func(t *testing.T) {
			dir := t.TempDir()
			cfg := durableConfig(t, dir)
			cfg.WALSegmentBytes = 256
			s, ts := newTestServer(t, cfg)
			feedback := func(n int) {
				for i := 0; i < n; i++ {
					fb := map[string]any{"transactions": []map[string]any{
						{"attrs": map[string]any{"amount": 300, "hour": 5}, "score": 1, "label": "fraud"},
					}}
					if code, body := postJSON(t, ts.URL+"/v1/feedback", fb, nil); code != http.StatusOK {
						t.Fatalf("feedback %d: %d %s", i, code, body)
					}
				}
			}
			feedback(20)
			if err := s.Snapshot(); err != nil {
				t.Fatal(err)
			}
			feedback(5)
			if crash {
				if code, body := postJSON(t, ts.URL+"/v1/rules", map[string]any{"rules": []string{"hour <= 6"}}, nil); code != http.StatusOK {
					t.Fatalf("publish: %d %s", code, body)
				}
			}
			ts.Close()
			if !crash {
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
			}

			manifests, err := filepath.Glob(filepath.Join(dir, "snap-*", manifestFile))
			if err != nil || len(manifests) == 0 {
				t.Fatalf("no snapshot manifests found: %v %v", manifests, err)
			}
			for _, m := range manifests {
				if err := os.WriteFile(m, []byte("garbage"), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			s2, err := New(cfg)
			if err == nil {
				s2.Close()
				t.Fatalf("New succeeded over a WAL pruned past the only loadable state: version %d, %d feedback tx (26 records were acked)",
					s2.Version(), s2.feedbackLen())
			}
			if msg := err.Error(); !strings.Contains(msg, "WAL starts at seq") || !strings.Contains(msg, "snapshot ends at seq 0") {
				t.Fatalf("error %q does not name the WAL's first seq and the snapshot's seq", msg)
			}
		})
	}
}

// TestCrashRecoveryRace hammers feedback, publishes and snapshots
// concurrently, abandons the server without Close, reopens the directory and
// asserts every acked operation survived. Run under -race this also checks
// the locking of the WAL-before-apply path.
func TestCrashRecoveryRace(t *testing.T) {
	dir := t.TempDir()
	s, err := New(durableConfig(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())

	const (
		feedbackWorkers = 4
		publishWorkers  = 2
		perWorker       = 25
	)
	var ackedFeedback, ackedPublishes atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < feedbackWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				fb := map[string]any{"transactions": []map[string]any{
					{"attrs": map[string]any{"amount": 100 + w, "hour": int64(i % 24)}, "score": 4, "label": "fraud"},
				}}
				if code, body := postJSON(t, ts.URL+"/v1/feedback", fb, nil); code == http.StatusOK {
					ackedFeedback.Add(1)
				} else {
					t.Errorf("feedback = %d: %s", code, body)
				}
			}
		}(w)
	}
	for w := 0; w < publishWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				req := rulesSwapRequest{Rules: []string{fmt.Sprintf("amount >= %d", 100+w*perWorker+i)}}
				if code, body := postJSON(t, ts.URL+"/v1/rules", req, nil); code == http.StatusOK {
					ackedPublishes.Add(1)
				} else {
					t.Errorf("publish = %d: %s", code, body)
				}
			}
		}(w)
	}
	stopSnap := make(chan struct{})
	snapDone := make(chan struct{})
	go func() {
		defer close(snapDone)
		for {
			select {
			case <-stopSnap:
				return
			default:
			}
			if err := s.Snapshot(); err != nil {
				t.Errorf("Snapshot: %v", err)
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()

	// Wait for the writers, stop the snapshotter, then crash.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("writers did not finish")
	}
	close(stopSnap)
	<-snapDone
	ts.Close()
	// No s.Close(): crash.

	s2, err := New(durableConfig(t, dir))
	if err != nil {
		t.Fatalf("recovery boot: %v", err)
	}
	defer s2.Close()
	if got, want := int64(s2.feedbackLen()), ackedFeedback.Load(); got != want {
		t.Fatalf("recovered feedback = %d, want %d acked batches", got, want)
	}
	// Version 1 is the initial publish; every acked POST /v1/rules adds one.
	if got, want := int64(s2.Version()), 1+ackedPublishes.Load(); got != want {
		t.Fatalf("recovered version = %d, want %d (1 initial + %d acked publishes)",
			got, want, ackedPublishes.Load())
	}
}

// TestDurableValidate covers the Config cross-checks for durability options.
func TestDurableValidate(t *testing.T) {
	schema := testSchema(t)
	for _, tc := range []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"fsync without datadir", func(c *Config) { c.Fsync = "always" }, "without Config.DataDir"},
		{"interval without datadir", func(c *Config) { c.FsyncInterval = time.Second }, "without Config.DataDir"},
		{"snapshot without datadir", func(c *Config) { c.SnapshotInterval = time.Second }, "without Config.DataDir"},
		{"segment bytes without datadir", func(c *Config) { c.WALSegmentBytes = 1 }, "without Config.DataDir"},
		{"bad fsync", func(c *Config) { c.DataDir = "x"; c.Fsync = "sometimes" }, "unknown fsync policy"},
		{"interval without interval policy", func(c *Config) {
			c.DataDir = "x"
			c.Fsync = "always"
			c.FsyncInterval = time.Second
		}, "only applies"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Schema: schema}
			tc.mut(&cfg)
			err := cfg.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}
