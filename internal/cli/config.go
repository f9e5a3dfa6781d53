package cli

import (
	"errors"
	"flag"
	"time"

	"repro/internal/datagen"
	"repro/internal/serve"
)

// ServeOptions is the daemon's configuration: the serve.Config it serves
// with, plus the inputs ServerConfig loads or generates into it. ServeFlags
// binds every serve-shaping rudolfd flag to its field; ServerConfig applies
// the synthetic-dataset fallbacks the daemon documents, loads the
// referenced files and validates the result, so the daemon's main() only
// parses flags and handles errors.
type ServeOptions struct {
	serve.Config
	// SchemaPath is a schema JSON file; empty boots the built-in synthetic
	// financial-institute schema (Size/Seed control the generator).
	SchemaPath string
	// RulesPath is a rule file. Required with SchemaPath; optional with the
	// synthetic schema (empty: the generated incumbent rules).
	RulesPath string
	// Size and Seed parameterize the synthetic dataset when SchemaPath is
	// empty.
	Size int
	Seed int64
	// AlertsPath is a declarative alert-rule file (see internal/alert);
	// empty keeps the compiled-in default rules.
	AlertsPath string
	// AlertInterval, when non-zero, overrides Config.AlertInterval. It
	// shadows that field only because benchmark/trace.go names it in a
	// composite literal, where a promoted field cannot appear; it goes when
	// the benchmark builds a serve.Config itself.
	AlertInterval time.Duration
}

// ServeFlags binds every serve-shaping rudolfd flag on fs to its field of
// the returned options. Each default is stated here once; 0 means the
// serving default documented on the serve.Config field.
func ServeFlags(fs *flag.FlagSet) *ServeOptions {
	o := &ServeOptions{}
	fs.StringVar(&o.SchemaPath, "schema", "", "schema JSON (empty: the built-in synthetic FI schema)")
	fs.StringVar(&o.RulesPath, "rules", "", "rule file (empty: the FI's generated incumbent rules)")
	fs.IntVar(&o.Size, "size", 2000, "synthetic dataset size (when -schema is empty)")
	fs.Int64Var(&o.Seed, "seed", 1, "synthetic dataset seed")
	fs.StringVar(&o.DataDir, "data-dir", "", "durable state directory (WAL + snapshots); replayed on boot")
	fs.StringVar(&o.FollowURL, "follow", "", "run as a read-only replication follower of the leader at this base URL (e.g. http://leader:8080)")
	fs.StringVar(&o.Fsync, "fsync", "", "WAL fsync policy: always, interval or never (default always; requires -data-dir)")
	fs.DurationVar(&o.FsyncInterval, "fsync-interval", 0, "flush period under -fsync interval (0: default)")
	fs.DurationVar(&o.SnapshotInterval, "snapshot-interval", 0, "periodic snapshot interval (0: default; negative: only on shutdown)")
	fs.Int64Var(&o.WALSegmentBytes, "wal-segment-bytes", 0, "WAL segment rotation threshold (0: default)")
	fs.IntVar(&o.Workers, "workers", 0, "concurrent scoring evaluations (0: 2x GOMAXPROCS)")
	fs.IntVar(&o.MaxBatch, "max-batch", 0, "max transactions per request (0: default)")
	fs.DurationVar(&o.DrainTimeout, "drain", serve.DefaultDrain, "graceful shutdown timeout")
	fs.IntVar(&o.TraceCapacity, "trace-capacity", 0, "span ring-buffer capacity served by GET /v1/trace (0: default)")
	fs.IntVar(&o.SlowRingCapacity, "slow-ring", 0, "tail-sampled slow-request ring capacity served by GET /v1/debug/slow (0: default; negative: disabled)")
	fs.DurationVar(&o.SlowFloor, "slow-floor", 0, "promote any request at least this slow into the slow ring (0: adaptive p99 only)")
	fs.IntVar(&o.AuditCapacity, "audit-ring", 0, "sampled decision audit ring capacity served by GET /v1/audit (0: default; negative: disabled)")
	fs.IntVar(&o.AuditSampleEvery, "audit-sample", 0, "audit 1-in-N decision sampling rate (0: default; 1: every decision)")
	fs.DurationVar(&o.DriftHalfLife, "drift-half-life", 0, "EWMA half-life for per-rule fire-rate drift in GET /v1/rules/health (0: default)")
	fs.StringVar(&o.AlertsPath, "alerts", "", "declarative alert-rule file (empty: the compiled-in SLO defaults)")
	fs.DurationVar(&o.Config.AlertInterval, "alert-interval", 0, "alert evaluation period (0: default 15s; negative: on-demand only via GET /v1/alerts?refresh=1)")
	fs.StringVar(&o.AlertWebhook, "alert-webhook", "", "POST firing/resolved alert transitions as JSON to this URL")
	return o
}

// ServerConfig builds and validates the serving configuration from the
// options. Every error is actionable at the flag level.
func (o ServeOptions) ServerConfig() (serve.Config, error) {
	cfg := o.Config
	if o.AlertInterval != 0 {
		cfg.AlertInterval = o.AlertInterval
	}
	if o.AlertsPath != "" {
		alertRules, err := LoadAlertRules(o.AlertsPath)
		if err != nil {
			return serve.Config{}, err
		}
		cfg.AlertRules = alertRules
	}
	switch {
	case cfg.FollowURL != "":
		// A follower's entire state — schema, rules, history, feedback —
		// replicates from the leader; any local source of the same state
		// would conflict with it. Checked here, before FetchSchema starts
		// retrying against the leader.
		switch {
		case cfg.DataDir != "":
			return serve.Config{}, errors.New("-follow and -data-dir are mutually exclusive: a follower's durable state is the leader's")
		case o.SchemaPath != "":
			return serve.Config{}, errors.New("-follow and -schema are mutually exclusive: a follower fetches the schema from the leader")
		case o.RulesPath != "":
			return serve.Config{}, errors.New("-follow and -rules are mutually exclusive: a follower replicates the leader's published rules")
		}
		schema, err := FetchSchema(cfg.FollowURL)
		if err != nil {
			return serve.Config{}, err
		}
		cfg.Schema = schema
	case o.SchemaPath != "":
		if o.RulesPath == "" {
			return serve.Config{}, errors.New("-schema requires -rules (the synthetic dataset brings its own incumbent rules)")
		}
		schema, err := LoadSchema(o.SchemaPath)
		if err != nil {
			return serve.Config{}, err
		}
		ruleSet, err := LoadRules(o.RulesPath, schema)
		if err != nil {
			return serve.Config{}, err
		}
		cfg.Schema, cfg.Rules = schema, ruleSet
	default:
		ds := datagen.Generate(datagen.Config{Size: o.Size, Seed: o.Seed})
		cfg.Schema = ds.Schema
		if o.RulesPath != "" {
			ruleSet, err := LoadRules(o.RulesPath, ds.Schema)
			if err != nil {
				return serve.Config{}, err
			}
			cfg.Rules = ruleSet
		} else {
			cfg.Rules = datagen.InitialRules(ds, 0, o.Seed)
		}
		// The synthetic FI schema has a day attribute that must not separate
		// clusters during /v1/refine.
		cfg.Refine.Clusterer = datagen.Clusterer()
	}
	if err := cfg.Validate(); err != nil {
		return serve.Config{}, err
	}
	return cfg, nil
}
