package serve

import (
	"bytes"
	"fmt"
	"io/fs"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"testing"
)

// dumpState serializes a server's replicated state the way a snapshot would.
func dumpState(t testing.TB, s *Server) map[string][]byte {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	_, files, err := s.dump(func() uint64 { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// copyDir copies the tree under src into dst — a data directory as a kill -9
// would leave it.
func copyDir(t testing.TB, dst, src string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// equivalenceRules is the pool the randomized publishes draw from: per-tuple
// rules plus every windowed aggregate kind, so publishes keep registering new
// window specs between observe records.
var equivalenceRules = []string{
	"amount >= 100",
	"amount >= 2500 && user <= 10",
	"user >= 900",
	"COUNT(user, 10m) >= 3",
	"COUNT(user, 1h) >= 6 && amount >= 50",
	"SUM(amount, user, 30m) >= 5000",
	"DISTINCT(amount, user, 20m) >= 4",
}

// TestApplyEquivalence is the small form of the model test the state machine
// exists for: a seeded random sequence of publishes, feedback batches and
// windowed scores is driven through a durable leader over HTTP, with a
// snapshot taken at a random point; then (a) a second server boots on a copy
// of the data directory — restore + WAL replay — and (b) a follower-role
// server is fed the same snapshot and the leader's WAL payloads through its
// replica.Target. Leader, reboot and follower must hold byte-identical
// history, feedback and window state and serve the same /v1/rules ETag.
func TestApplyEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { applyEquivalence(t, seed) })
	}
}

func applyEquivalence(t *testing.T, seed int64) {
	const ops = 60
	rng := rand.New(rand.NewSource(seed))
	schema := velocityServeSchema(t)
	cfg := Config{
		Schema:           schema,
		Rules:            mustRules(t, schema, equivalenceRules[0]),
		DataDir:          t.TempDir(),
		Fsync:            "never",
		SnapshotInterval: -1,
		AlertInterval:    -1,
	}
	leader, lts := newTestServer(t, cfg)

	minute := int64(100)
	batch := func(labeled bool) []any {
		txs := make([]any, 1+rng.Intn(6))
		for i := range txs {
			minute += int64(rng.Intn(4)) - 1 // mostly forward, sometimes late
			tx := vtx(minute, int64(rng.Intn(5)), int64(rng.Intn(4))*1000)
			if labeled {
				tx["label"] = []string{"fraud", "legit", "unlabeled"}[rng.Intn(3)]
			}
			txs[i] = tx
		}
		return txs
	}
	snapAt := rng.Intn(ops)
	var snapSeq uint64
	for op := 0; op < ops; op++ {
		var path string
		var body any
		switch k := rng.Intn(10); {
		case k < 2:
			texts := make([]string, 1+rng.Intn(3))
			for i := range texts {
				texts[i] = equivalenceRules[rng.Intn(len(equivalenceRules))]
			}
			path, body = "/v1/rules", rulesSwapRequest{Rules: texts, Comment: fmt.Sprintf("op %d", op)}
		case k < 4:
			path, body = "/v1/feedback", map[string]any{"transactions": batch(true)}
		default:
			path, body = "/v1/score", map[string]any{"transactions": batch(false)}
		}
		if code, resp := postJSON(t, lts.URL+path, body, nil); code != http.StatusOK {
			t.Fatalf("op %d: POST %s = %d: %s", op, path, code, resp)
		}
		if op == snapAt {
			if err := leader.Snapshot(); err != nil {
				t.Fatal(err)
			}
			snapSeq = leader.lastSnapSeq.Load()
		}
	}
	lts.Close()
	want := dumpState(t, leader)
	wantETag := versionETag(leader.Version())

	check := func(role string, s *Server) {
		t.Helper()
		got := dumpState(t, s)
		for _, name := range []string{historyFile, feedbackFile, windowFile} {
			if !bytes.Equal(got[name], want[name]) {
				t.Errorf("%s %s differs from the leader's:\n%s\nleader:\n%s", role, name, got[name], want[name])
			}
		}
		if etag, _ := etagOf(t, newHTTPServer(t, s).URL); etag != wantETag {
			t.Errorf("%s /v1/rules ETag = %s, leader %s", role, etag, wantETag)
		}
	}

	// (a) The crash-and-reboot: a copy of the directory as it is now (the
	// leader was never closed, so no final snapshot) boots by restore+replay.
	cfg.DataDir = t.TempDir()
	copyDir(t, cfg.DataDir, leader.cfg.DataDir)
	reboot, err := New(cfg)
	if err != nil {
		t.Fatalf("reboot: %v", err)
	}
	defer reboot.Close()
	check("reboot", reboot)

	// (b) The follower: the same snapshot and the log past it, handed to the
	// replica.Target the way internal/replica would.
	follower, err := New(Config{Schema: schema, FollowURL: "http://leader.invalid", AlertInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	files, err := readSnapshotDir(filepath.Join(leader.cfg.DataDir, snapName(snapSeq)))
	if err != nil {
		t.Fatal(err)
	}
	target := followTarget{follower}
	if err := target.Bootstrap(snapSeq, files); err != nil {
		t.Fatalf("Bootstrap(%d): %v", snapSeq, err)
	}
	rd, err := leader.wal.NewReader(snapSeq + 1)
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	for {
		e, ok, err := rd.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if err := target.Apply(e.Seq, e.Payload); err != nil {
			t.Fatalf("Apply(%d): %v", e.Seq, err)
		}
	}
	check("follower", follower)
}
