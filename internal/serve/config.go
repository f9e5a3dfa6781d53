package serve

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/url"
	"runtime"
	"time"

	"repro/internal/alert"
	"repro/internal/core"
	"repro/internal/expert"
	"repro/internal/relation"
	"repro/internal/rules"
	"repro/internal/telemetry"
	"repro/internal/wal"
)

// Config parameterizes a Server. Schema is required; everything else has
// serving-grade defaults. Construct it in one place (internal/cli builds it
// from the daemon's flags), call Validate to get actionable errors instead
// of surprising runtime behavior, and hand it to New — New validates again,
// so programmatic callers cannot skip the checks.
type Config struct {
	// Schema of the transaction relation the daemon scores.
	Schema *relation.Schema
	// Rules is the initial rule set (may be empty; swap one in later). When
	// DataDir holds previously persisted state, the restored rules win and
	// Rules is only used for the very first boot.
	Rules *rules.Set
	// Workers bounds concurrently evaluating scoring requests (the worker
	// pool). 0 means 2×GOMAXPROCS slots.
	Workers int
	// MaxBatch caps transactions per /v1/score or /v1/feedback request.
	// 0 means DefaultMaxBatch.
	MaxBatch int
	// MaxBodyBytes caps request bodies. 0 means DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// ScoreTimeout, SwapTimeout, FeedbackTimeout and RefineTimeout bound
	// the respective endpoints (0 means the package defaults).
	ScoreTimeout    time.Duration
	SwapTimeout     time.Duration
	FeedbackTimeout time.Duration
	RefineTimeout   time.Duration
	// DrainTimeout bounds the graceful shutdown in Serve.
	DrainTimeout time.Duration
	// Refine configures the sessions run by POST /v1/refine.
	Refine core.Options
	// Expert reviews /v1/refine proposals; nil means the auto-accepting
	// expert (the paper's unattended RUDOLF⁻ mode — a serving daemon has
	// no terminal to put an analyst on).
	Expert core.Expert
	// Registry receives the daemon's metrics; nil means a fresh registry.
	Registry *telemetry.Registry
	// TraceCapacity sizes the daemon's span ring buffer (GET /v1/trace
	// serves its contents). 0 means trace.DefaultCapacity. The daemon
	// always owns its tracer: span completions also feed the
	// refinement-duration and expert-query metrics.
	TraceCapacity int
	// SlowRingCapacity sizes the tail-sampled slow-request ring served by
	// GET /v1/debug/slow: requests slower than the live p99-tracking
	// threshold (or SlowFloor) keep their full span tree until overwritten
	// by later promotions. 0 means DefaultSlowRing; negative disables the
	// ring.
	SlowRingCapacity int
	// SlowFloor is the explicit tail-sampling floor: any request at least
	// this slow is promoted into the slow ring regardless of the adaptive
	// threshold. 0 means adaptive-only.
	SlowFloor time.Duration
	// Logger receives structured operational logs (publishes, refinements,
	// replays, drains). Nil discards them, keeping tests and library
	// callers quiet.
	Logger *slog.Logger

	// AuditCapacity bounds the sampled decision audit ring served by
	// GET /v1/audit. 0 means rulestats.DefaultAuditCapacity; negative
	// disables the ring.
	AuditCapacity int
	// AuditSampleEvery admits every n-th scored transaction into the audit
	// ring. 0 means rulestats.DefaultSampleEvery; negative disables
	// sampling.
	AuditSampleEvery int
	// DriftHalfLife is the half-life of the per-rule fire-rate EWMA behind
	// the drift score of GET /v1/rules/health. 0 means
	// rulestats.DefaultHalfLife.
	DriftHalfLife time.Duration
	// BaselineMinTx is the scored-transaction count after which a freshly
	// published version's per-rule baseline fire shares freeze (the drift
	// denominator). 0 means rulestats.DefaultBaselineMinTx.
	BaselineMinTx int

	// DataDir enables durable serving state: analyst feedback and rule-set
	// publishes are written to a write-ahead log under DataDir/wal, bounded
	// by periodic snapshots under DataDir/snap-*, and replayed on boot
	// before the server is constructed (so /readyz never reports ready with
	// half-restored state). Empty disables durability (in-memory only, the
	// pre-durability behavior).
	DataDir string
	// Fsync selects the WAL fsync policy: "always" (default; an acked
	// record is durable), "interval" (bounded loss window, higher
	// throughput) or "never" (leave flushing to the OS). Requires DataDir.
	Fsync string
	// FsyncInterval is the flush period under Fsync "interval". 0 means
	// wal.DefaultSyncInterval. Requires Fsync "interval".
	FsyncInterval time.Duration
	// SnapshotInterval bounds WAL replay time by periodically writing a
	// snapshot (feedback CSV + rule history + version manifest) and pruning
	// replayed-into-snapshot WAL segments. 0 means DefaultSnapshotInterval;
	// negative disables periodic snapshots (one is still written on Close).
	// Requires DataDir.
	SnapshotInterval time.Duration
	// WALSegmentBytes is the WAL segment rotation threshold. 0 means
	// wal.DefaultSegmentBytes. Requires DataDir.
	WALSegmentBytes int64

	// AlertRules is the declarative alert rule set the embedded alert engine
	// evaluates (see internal/alert and DESIGN.md §17). Nil means
	// alert.DefaultRules(); an explicit empty slice disables every rule
	// while keeping the engine (and POST /v1/alerts) available.
	AlertRules []alert.Rule
	// AlertInterval is the evaluation period. 0 means
	// alert.DefaultInterval (15s); negative disables the periodic
	// evaluator (the engine still exists, and GET /v1/alerts?refresh=1
	// evaluates on demand — how tests and scripts drive it
	// deterministically).
	AlertInterval time.Duration
	// AlertWebhook, when non-empty, is an absolute http(s) URL that
	// receives every firing and resolved alert transition as a JSON POST
	// (asynchronously, with bounded queue and capped-backoff retries).
	AlertWebhook string

	// FollowURL turns the server into a read-only replication follower of
	// the leader at this base URL (e.g. "http://leader:8080"): it bootstraps
	// from the leader's newest snapshot, tails its WAL stream, serves reads
	// at the leader's rule version, and answers every mutating request with
	// 403 "read_only" plus a Location header to the leader. Mutually
	// exclusive with DataDir (a follower's durable state IS the leader's).
	// See DESIGN.md §16.
	FollowURL string
}

// Defaults for the zero Config values.
const (
	DefaultMaxBatch         = 4096
	DefaultMaxBodyBytes     = 8 << 20
	DefaultScoreTimeout     = 5 * time.Second
	DefaultSwapTimeout      = 10 * time.Second
	DefaultRefine           = 120 * time.Second
	DefaultDrain            = 10 * time.Second
	DefaultSnapshotInterval = time.Minute
	// DefaultSlowRing is the slow-request ring capacity when
	// Config.SlowRingCapacity is 0.
	DefaultSlowRing = 64
)

// Validate checks the configuration for contradictions and out-of-range
// values, returning actionable errors. The zero values that mean "use the
// default" are accepted.
func (cfg Config) Validate() error {
	if cfg.Schema == nil {
		return errors.New("serve: Config.Schema is required (load one with relation.ReadSchemaJSON, or boot the synthetic dataset)")
	}
	if cfg.Workers < 0 {
		return fmt.Errorf("serve: Config.Workers = %d; want >= 0 (0 means 2×GOMAXPROCS = %d)", cfg.Workers, 2*runtime.GOMAXPROCS(0))
	}
	if cfg.MaxBatch < 0 {
		return fmt.Errorf("serve: Config.MaxBatch = %d; want >= 0 (0 means the default %d)", cfg.MaxBatch, DefaultMaxBatch)
	}
	if cfg.MaxBodyBytes < 0 {
		return fmt.Errorf("serve: Config.MaxBodyBytes = %d; want >= 0 (0 means the default %d)", cfg.MaxBodyBytes, int64(DefaultMaxBodyBytes))
	}
	for _, d := range []struct {
		name string
		v    time.Duration
	}{
		{"ScoreTimeout", cfg.ScoreTimeout},
		{"SwapTimeout", cfg.SwapTimeout},
		{"FeedbackTimeout", cfg.FeedbackTimeout},
		{"RefineTimeout", cfg.RefineTimeout},
		{"DrainTimeout", cfg.DrainTimeout},
		{"FsyncInterval", cfg.FsyncInterval},
		{"DriftHalfLife", cfg.DriftHalfLife},
		{"SlowFloor", cfg.SlowFloor},
	} {
		if d.v < 0 {
			return fmt.Errorf("serve: Config.%s = %v; want >= 0 (0 means the default)", d.name, d.v)
		}
	}
	if cfg.TraceCapacity < 0 {
		return fmt.Errorf("serve: Config.TraceCapacity = %d; want >= 0 (0 means the trace default)", cfg.TraceCapacity)
	}
	if cfg.BaselineMinTx < 0 {
		return fmt.Errorf("serve: Config.BaselineMinTx = %d; want >= 0 (0 means the rulestats default)", cfg.BaselineMinTx)
	}
	if cfg.WALSegmentBytes < 0 {
		return fmt.Errorf("serve: Config.WALSegmentBytes = %d; want >= 0 (0 means the default %d)", cfg.WALSegmentBytes, int64(wal.DefaultSegmentBytes))
	}
	if cfg.DataDir == "" {
		switch {
		case cfg.Fsync != "":
			return errors.New("serve: Config.Fsync is set without Config.DataDir; durability options need a data directory")
		case cfg.FsyncInterval != 0:
			return errors.New("serve: Config.FsyncInterval is set without Config.DataDir; durability options need a data directory")
		case cfg.SnapshotInterval != 0:
			return errors.New("serve: Config.SnapshotInterval is set without Config.DataDir; durability options need a data directory")
		case cfg.WALSegmentBytes != 0:
			return errors.New("serve: Config.WALSegmentBytes is set without Config.DataDir; durability options need a data directory")
		}
	}
	policy, err := wal.ParseSyncPolicy(cfg.Fsync)
	if err != nil {
		return fmt.Errorf("serve: Config.Fsync: %w", err)
	}
	if cfg.FsyncInterval > 0 && policy != wal.SyncInterval {
		return fmt.Errorf("serve: Config.FsyncInterval = %v but Config.Fsync = %q; the interval only applies to Fsync \"interval\"", cfg.FsyncInterval, policy)
	}
	if cfg.AlertWebhook != "" {
		u, err := url.Parse(cfg.AlertWebhook)
		if err != nil || !u.IsAbs() || u.Host == "" || (u.Scheme != "http" && u.Scheme != "https") {
			return fmt.Errorf("serve: Config.AlertWebhook = %q; want an absolute http(s) URL like http://alertmanager:9093/hook", cfg.AlertWebhook)
		}
	}
	if cfg.FollowURL != "" {
		if cfg.DataDir != "" {
			return errors.New("serve: Config.FollowURL and Config.DataDir are mutually exclusive; a follower's durable state is the leader's")
		}
		u, err := url.Parse(cfg.FollowURL)
		if err != nil || !u.IsAbs() || u.Host == "" || (u.Scheme != "http" && u.Scheme != "https") {
			return fmt.Errorf("serve: Config.FollowURL = %q; want an absolute http(s) base URL like http://leader:8080", cfg.FollowURL)
		}
	}
	return nil
}

// withDefaults returns a copy with every zero field replaced by its default.
// Callers must have validated first.
func (cfg Config) withDefaults() Config {
	if cfg.Rules == nil {
		cfg.Rules = rules.NewSet()
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2 * runtime.GOMAXPROCS(0)
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if cfg.ScoreTimeout <= 0 {
		cfg.ScoreTimeout = DefaultScoreTimeout
	}
	if cfg.SwapTimeout <= 0 {
		cfg.SwapTimeout = DefaultSwapTimeout
	}
	if cfg.FeedbackTimeout <= 0 {
		cfg.FeedbackTimeout = DefaultSwapTimeout
	}
	if cfg.RefineTimeout <= 0 {
		cfg.RefineTimeout = DefaultRefine
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = DefaultDrain
	}
	if cfg.Expert == nil {
		// The auto-accepting expert: a serving daemon has no terminal to
		// put an analyst on, so /v1/refine defaults to the paper's
		// unattended RUDOLF⁻ mode.
		cfg.Expert = &expert.AutoAccept{}
	}
	if cfg.Registry == nil {
		cfg.Registry = telemetry.NewRegistry()
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(math.MaxInt)}))
	}
	switch {
	case cfg.SlowRingCapacity == 0:
		cfg.SlowRingCapacity = DefaultSlowRing
	case cfg.SlowRingCapacity < 0:
		cfg.SlowRingCapacity = 0 // disabled
	}
	if cfg.Fsync == "" {
		cfg.Fsync = string(wal.SyncAlways)
	}
	if cfg.AlertRules == nil {
		cfg.AlertRules = alert.DefaultRules()
	}
	if cfg.AlertInterval == 0 {
		cfg.AlertInterval = alert.DefaultInterval
	}
	if cfg.DataDir != "" && cfg.SnapshotInterval == 0 {
		cfg.SnapshotInterval = DefaultSnapshotInterval
	}
	return cfg
}
