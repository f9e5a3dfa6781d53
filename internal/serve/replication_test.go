package serve

import (
	"context"
	"encoding/json"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// startFollower builds a follower of the leader at leaderURL, runs its
// replication loop until the test ends, and serves its handler over httptest.
func startFollower(t testing.TB, cfg Config, leaderURL string) (*Server, string) {
	t.Helper()
	cfg.FollowURL = leaderURL
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- f.Follow(ctx) }()
	t.Cleanup(func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("Follow: %v", err)
		}
	})
	ts := httptest.NewServer(f.Handler())
	t.Cleanup(ts.Close)
	return f, ts.URL
}

// decodeBody unmarshals a response body into out, failing the test on
// malformed JSON.
func decodeBody(t testing.TB, resp *http.Response, out any) {
	t.Helper()
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, out); err != nil {
		t.Fatalf("unmarshaling %q: %v", data, err)
	}
}

// waitFor polls cond for up to 10s — replication is asynchronous by design,
// so convergence assertions poll instead of sleeping a fixed amount.
func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func etagOf(t testing.TB, base string) (string, int) {
	t.Helper()
	resp, err := http.Get(base + "/v1/rules")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rr rulesResponse
	decodeBody(t, resp, &rr)
	return resp.Header.Get("ETag"), rr.Version
}

// TestFollowerReplicatesLeader is the end-to-end tentpole test: a follower
// bootstraps from a live durable leader, replays feedback and publishes,
// reaches readiness, serves GET /v1/rules with the leader's exact ETag,
// keeps converging on later publishes, and rejects writes with the
// "read_only" envelope pointing at the leader.
func TestFollowerReplicatesLeader(t *testing.T) {
	schema := testSchema(t)
	leader, lts := newTestServer(t, Config{
		Schema:  schema,
		Rules:   mustRules(t, schema, "amount >= 100"),
		DataDir: t.TempDir(),
		Fsync:   "never",
	})
	defer leader.Close()

	// Pre-existing leader state the follower must replay: one feedback batch
	// and a second published version.
	if code, body := postJSON(t, lts.URL+"/v1/feedback", map[string]any{
		"transactions": []any{
			map[string]any{"attrs": map[string]any{"amount": 500, "hour": 3}, "score": 10, "label": "fraud"},
			map[string]any{"attrs": map[string]any{"amount": 20, "hour": 12}, "score": 10, "label": "legit"},
		},
	}, nil); code != http.StatusOK {
		t.Fatalf("leader feedback: %d %s", code, body)
	}
	if code, body := postJSON(t, lts.URL+"/v1/rules", map[string]any{
		"rules": []string{"amount >= 100", "hour <= 4"}, "comment": "v2",
	}, nil); code != http.StatusOK {
		t.Fatalf("leader publish: %d %s", code, body)
	}

	follower, fts := startFollower(t, Config{Schema: schema}, lts.URL)

	waitFor(t, "follower readiness", func() bool {
		return getJSON(t, fts+"/readyz", nil) == http.StatusOK
	})
	waitFor(t, "version convergence", func() bool { return follower.Version() == leader.Version() })

	// The load-bearing invariant: the follower's /v1/rules ETag equals the
	// leader's at the same version.
	letag, lver := etagOf(t, lts.URL)
	fetag, fver := etagOf(t, fts)
	if letag != fetag || lver != fver {
		t.Fatalf("leader %s v%d != follower %s v%d", letag, lver, fetag, fver)
	}
	if got, want := follower.feedbackLen(), leader.feedbackLen(); got != want {
		t.Fatalf("follower feedback = %d, want %d", got, want)
	}

	// The follower scores with the replicated rules.
	var sr scoreResponse
	if code, body := postJSON(t, fts+"/v1/score", tx(150, 12, 10), &sr); code != http.StatusOK {
		t.Fatalf("follower score: %d %s", code, body)
	} else if !sr.Flagged[0] || sr.Version != lver {
		t.Fatalf("follower score: %+v, want flagged at version %d", sr, lver)
	}

	// GET /v1/status reports the roles.
	var st statusResponse
	if code := getJSON(t, fts+"/v1/status", &st); code != http.StatusOK || st.Role != "follower" || !st.Ready {
		t.Fatalf("follower status: code %d, %+v", code, st)
	}
	if code := getJSON(t, lts.URL+"/v1/status", &st); code != http.StatusOK || st.Role != "leader" || st.WALLastSeq == 0 {
		t.Fatalf("leader status: code %d, %+v", code, st)
	}

	// Writes are rejected with the stable code and a Location to the leader.
	resp, err := http.Post(fts+"/v1/feedback", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	var er errorResponse
	decodeBody(t, resp, &er)
	if resp.StatusCode != http.StatusForbidden || er.Error.Code != CodeReadOnly {
		t.Fatalf("follower write: %d %+v, want 403 %s", resp.StatusCode, er, CodeReadOnly)
	}
	if loc := resp.Header.Get("Location"); loc != lts.URL+"/v1/feedback" {
		t.Fatalf("Location = %q, want %q", loc, lts.URL+"/v1/feedback")
	}
	// GET on the same guarded route still serves.
	if code := getJSON(t, fts+"/v1/rules", nil); code != http.StatusOK {
		t.Fatalf("follower GET /v1/rules: %d", code)
	}

	// A publish after catch-up streams through live.
	if code, body := postJSON(t, lts.URL+"/v1/rules", map[string]any{
		"rules": []string{"amount >= 200"}, "comment": "v3",
	}, nil); code != http.StatusOK {
		t.Fatalf("leader publish v3: %d %s", code, body)
	}
	waitFor(t, "post-catch-up convergence", func() bool { return follower.Version() == leader.Version() })
	letag, _ = etagOf(t, lts.URL)
	fetag, _ = etagOf(t, fts)
	if letag != fetag {
		t.Fatalf("post-publish ETags diverge: leader %s follower %s", letag, fetag)
	}

	// Rule health is per node: the follower accounts the replicated version
	// and counts only the traffic it scored itself under it.
	for i, url := range []string{lts.URL, lts.URL, fts} {
		if code, body := postJSON(t, url+"/v1/score", tx(250, 12, 10), nil); code != http.StatusOK {
			t.Fatalf("score %d: %d %s", i, code, body)
		}
	}
	for _, n := range []struct {
		url  string
		want uint64
	}{{lts.URL, 2}, {fts, 1}} {
		var h ruleHealthResponse
		if code := getJSON(t, n.url+"/v1/rules/health", &h); code != http.StatusOK {
			t.Fatalf("%s health: %d", n.url, code)
		}
		if h.Version != leader.Version() || h.TotalTx != n.want || len(h.Rules) != 1 || h.Rules[0].Fires != n.want {
			t.Fatalf("%s health = %+v, want version %d with %d scored, all firing rule 0", n.url, h.Snapshot, leader.Version(), n.want)
		}
	}
}

// TestFollowerBootstrapsFromSnapshot forces a leader snapshot (which prunes
// the WAL) before the follower connects: bootstrap must come from the
// snapshot files, not a full-WAL replay, and the streamed tail must carry
// only the records past it. Windowed state rides along in window.json.
func TestFollowerBootstrapsFromSnapshot(t *testing.T) {
	schema := velocityServeSchema(t)
	leader, lts := newTestServer(t, Config{
		Schema:  schema,
		Rules:   mustRules(t, schema, "COUNT(user, 10m) >= 3"),
		DataDir: t.TempDir(),
		Fsync:   "never",
	})
	defer leader.Close()

	// Two observed events inside the snapshot...
	for i := 0; i < 2; i++ {
		if code, body := postJSON(t, lts.URL+"/v1/score", vtx(int64(100+i), 7, 50), nil); code != http.StatusOK {
			t.Fatalf("leader score %d: %d %s", i, code, body)
		}
	}
	if err := leader.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// ...and one streamed after it.
	if code, body := postJSON(t, lts.URL+"/v1/score", vtx(102, 7, 50), nil); code != http.StatusOK {
		t.Fatalf("leader score post-snapshot: %d %s", code, body)
	}

	follower, fts := startFollower(t, Config{Schema: schema}, lts.URL)
	waitFor(t, "follower readiness", func() bool {
		return getJSON(t, fts+"/readyz", nil) == http.StatusOK
	})
	if follower.follower.snapSeq.Load() == 0 {
		t.Fatal("follower did not bootstrap from a snapshot")
	}

	// The replicated window store has user 7's three observes: a fourth
	// event scores as flagged on the follower — read-only, so scoring it
	// twice yields the same aggregate (the follower never observes).
	for try := 0; try < 2; try++ {
		var sr scoreResponse
		if code, body := postJSON(t, fts+"/v1/score", vtx(103, 7, 50), &sr); code != http.StatusOK {
			t.Fatalf("follower score: %d %s", code, body)
		} else if !sr.Flagged[0] {
			t.Fatalf("try %d: follower did not flag the velocity rule (%+v)", try, sr)
		}
	}
	// A different user has no replicated activity: not flagged.
	var sr scoreResponse
	if _, body := postJSON(t, fts+"/v1/score", vtx(103, 8, 50), &sr); sr.Flagged[0] {
		t.Fatalf("unseen user flagged: %s", body)
	}
}

// TestTornSnapshotIsRefused: a snapshot whose manifest declares window.json
// but whose directory lost it (a follower fetching while removeOldSnapshots
// unlinks the directory file by file) is never handed out or restored short
// of its window state — the handler answers the "gone, refetch" 404 and
// restore fails loud. A manifest from before the declaration existed still
// loads, with or without a window file.
func TestTornSnapshotIsRefused(t *testing.T) {
	schema := velocityServeSchema(t)
	leader, lts := newTestServer(t, Config{
		Schema:           schema,
		Rules:            mustRules(t, schema, "COUNT(user, 10m) >= 3"),
		DataDir:          t.TempDir(),
		Fsync:            "never",
		SnapshotInterval: -1,
	})
	if code, body := postJSON(t, lts.URL+"/v1/score", vtx(100, 7, 50), nil); code != http.StatusOK {
		t.Fatalf("leader score: %d %s", code, body)
	}
	if err := leader.Snapshot(); err != nil {
		t.Fatal(err)
	}
	seq := leader.lastSnapSeq.Load()
	dir := filepath.Join(leader.cfg.DataDir, snapName(seq))
	intact, err := readSnapshotDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m, err := parseManifest(intact[manifestFile]); err != nil || !m.Window || intact[windowFile] == nil {
		t.Fatalf("snapshot manifest = %+v (err %v), want window declared and shipped", m, err)
	}
	restoreInto := func(files map[string][]byte) (*Server, error) {
		f, err := New(Config{Schema: schema, FollowURL: "http://leader.invalid", AlertInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() }) //nolint:errcheck // test teardown
		return f, f.restore(seq, files)
	}

	if err := os.Remove(filepath.Join(dir, windowFile)); err != nil {
		t.Fatal(err)
	}
	var er errorResponse
	resp, err := http.Get(lts.URL + "/v1/wal/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	decodeBody(t, resp, &er)
	if resp.StatusCode != http.StatusNotFound || er.Error.Code != CodeNotFound {
		t.Fatalf("GET /v1/wal/snapshot of a torn snapshot = %d %+v, want 404 %s", resp.StatusCode, er, CodeNotFound)
	}
	torn := maps.Clone(intact)
	delete(torn, windowFile)
	if _, err := restoreInto(torn); err == nil || !strings.Contains(err.Error(), windowFile) {
		t.Fatalf("restore of a torn snapshot: err = %v, want a missing-%s failure", err, windowFile)
	}
	crashed := t.TempDir()
	copyDir(t, crashed, leader.cfg.DataDir)
	if _, err := New(Config{Schema: schema, Rules: leader.cfg.Rules, DataDir: crashed}); err == nil || !strings.Contains(err.Error(), windowFile) {
		t.Fatalf("boot on a torn snapshot: err = %v, want a missing-%s failure", err, windowFile)
	}

	// The same directory under an old-format manifest (no "window" key): the
	// window file is optional again.
	var m map[string]any
	if err := json.Unmarshal(intact[manifestFile], &m); err != nil {
		t.Fatal(err)
	}
	delete(m, "window")
	old, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestFile), old, 0o644); err != nil {
		t.Fatal(err)
	}
	var doc walSnapshotResponse
	if code := getJSON(t, lts.URL+"/v1/wal/snapshot", &doc); code != http.StatusOK || doc.Files[windowFile] != "" || len(doc.Files) != 3 {
		t.Fatalf("GET /v1/wal/snapshot under an old manifest = %d with files %v, want 200 without %s", code, doc.Files, windowFile)
	}
	torn[manifestFile] = old
	if f, err := restoreInto(torn); err != nil || f.Version() != leader.Version() {
		t.Fatalf("restore under an old manifest: version %d, err %v; want version %d", f.Version(), err, leader.Version())
	}
	intact[manifestFile] = old
	if f, err := restoreInto(intact); err != nil || f.winStore.Entries() == 0 {
		t.Fatalf("restore under an old manifest with a window file: %d entries, err %v; want them loaded", f.winStore.Entries(), err)
	}
}
