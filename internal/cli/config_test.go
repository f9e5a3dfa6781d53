package cli

import (
	"flag"
	"io"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
)

// TestServeOptionsSynthetic: the zero-config path boots the synthetic
// dataset with incumbent rules and validates.
func TestServeOptionsSynthetic(t *testing.T) {
	cfg, err := (ServeOptions{Size: 200, Seed: 1}).ServerConfig()
	if err != nil {
		t.Fatalf("ServerConfig: %v", err)
	}
	if cfg.Schema == nil || cfg.Rules == nil || cfg.Rules.Len() == 0 {
		t.Fatalf("synthetic config lacks schema or rules: %+v", cfg)
	}
	if cfg.Refine.Clusterer == nil {
		t.Fatal("synthetic config must pin the dataset clusterer for /v1/refine")
	}
}

// TestServeOptionsErrors: flag-level contradictions surface as actionable
// errors before any server is constructed.
func TestServeOptionsErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		o    ServeOptions
		want string
	}{
		{"schema without rules", ServeOptions{SchemaPath: "x.json", Size: 10}, "-schema requires -rules"},
		{"fsync without data dir", ServeOptions{Config: serve.Config{Fsync: "never"}, Size: 10}, "data directory"},
		{"bad fsync", ServeOptions{Config: serve.Config{DataDir: "d", Fsync: "sometimes"}, Size: 10}, "unknown fsync policy"},
		// Checked before FetchSchema, which would retry the leader for ~20 s.
		{"follow with data dir", ServeOptions{Config: serve.Config{FollowURL: "http://127.0.0.1:1", DataDir: "d"}}, "-follow and -data-dir"},
		{"missing schema file", ServeOptions{SchemaPath: "does-not-exist.json", RulesPath: "r.txt", Size: 10}, "does-not-exist.json"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.o.ServerConfig()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("ServerConfig = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

// TestServeOptionsDurable: the durability knobs pass through to the
// validated config.
func TestServeOptionsDurable(t *testing.T) {
	dir := t.TempDir()
	cfg, err := (ServeOptions{Config: serve.Config{DataDir: filepath.Join(dir, "state"), Fsync: "never"}, Size: 100, Seed: 1}).ServerConfig()
	if err != nil {
		t.Fatalf("ServerConfig: %v", err)
	}
	if cfg.DataDir == "" || cfg.Fsync != "never" {
		t.Fatalf("durability knobs lost: %+v", cfg)
	}
}

// TestServeFlags: one argument list sets every serve-shaping rudolfd flag
// to a non-default value, and each lands in its own field — the
// serve.Config field for everything the server reads. -history is gone.
func TestServeFlags(t *testing.T) {
	fs := flag.NewFlagSet("rudolfd", flag.ContinueOnError)
	o := ServeFlags(fs)
	args := []string{
		"-schema", "s.json", "-rules", "r.txt", "-size", "7", "-seed", "9",
		"-data-dir", "d", "-follow", "http://leader:1",
		"-fsync", "interval", "-fsync-interval", "3ms", "-snapshot-interval", "4s",
		"-wal-segment-bytes", "5", "-workers", "6", "-max-batch", "8",
		"-drain", "11s", "-trace-capacity", "12", "-slow-ring", "-1",
		"-slow-floor", "13ms", "-audit-ring", "14", "-audit-sample", "15",
		"-drift-half-life", "16m", "-alerts", "a.txt", "-alert-interval", "-1s",
		"-alert-webhook", "http://hook:2/x",
	}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	n := 0
	fs.VisitAll(func(*flag.Flag) { n++ })
	if n != len(args)/2 {
		t.Fatalf("ServeFlags defines %d flags, the argument list sets %d", n, len(args)/2)
	}
	want := ServeOptions{
		Config: serve.Config{
			DataDir: "d", FollowURL: "http://leader:1",
			Fsync: "interval", FsyncInterval: 3 * time.Millisecond, SnapshotInterval: 4 * time.Second,
			WALSegmentBytes: 5, Workers: 6, MaxBatch: 8,
			DrainTimeout: 11 * time.Second, TraceCapacity: 12, SlowRingCapacity: -1,
			SlowFloor: 13 * time.Millisecond, AuditCapacity: 14, AuditSampleEvery: 15,
			DriftHalfLife: 16 * time.Minute, AlertInterval: -time.Second,
			AlertWebhook: "http://hook:2/x",
		},
		SchemaPath: "s.json", RulesPath: "r.txt", Size: 7, Seed: 9, AlertsPath: "a.txt",
	}
	if !reflect.DeepEqual(*o, want) {
		t.Fatalf("parsed options\n got %+v\nwant %+v", *o, want)
	}
	// The daemon persists its history only through -data-dir.
	fs.SetOutput(io.Discard)
	if err := fs.Parse([]string{"-history", "h.json"}); err == nil || !strings.Contains(err.Error(), "-history") {
		t.Fatalf("Parse(-history) = %v, want an unknown-flag error", err)
	}
}

// TestServeFlagsDefaults: an empty argument list leaves serve.Config at its
// zero value apart from the drain timeout, whose default is the serving one.
func TestServeFlagsDefaults(t *testing.T) {
	fs := flag.NewFlagSet("rudolfd", flag.ContinueOnError)
	o := ServeFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	want := ServeOptions{Config: serve.Config{DrainTimeout: serve.DefaultDrain}, Size: 2000, Seed: 1}
	if !reflect.DeepEqual(*o, want) {
		t.Fatalf("default options\n got %+v\nwant %+v", *o, want)
	}
}

// TestServeOptionsAlertInterval: the own AlertInterval field, when set,
// wins over the embedded serve.Config one.
func TestServeOptionsAlertInterval(t *testing.T) {
	o := ServeOptions{Config: serve.Config{AlertInterval: time.Minute}, Size: 100, Seed: 1}
	for _, tc := range []struct {
		own, want time.Duration
	}{{0, time.Minute}, {-time.Second, -time.Second}} {
		o.AlertInterval = tc.own
		cfg, err := o.ServerConfig()
		if err != nil {
			t.Fatal(err)
		}
		if cfg.AlertInterval != tc.want {
			t.Fatalf("own AlertInterval %v: cfg.AlertInterval = %v, want %v", tc.own, cfg.AlertInterval, tc.want)
		}
	}
}
