package cli

import (
	"errors"
	"log/slog"
	"time"

	"repro/internal/datagen"
	"repro/internal/serve"
)

// ServeOptions collects every rudolfd flag that shapes the serving
// configuration, so the flag-to-Config translation lives in exactly one
// place. ServerConfig applies the same synthetic-dataset fallbacks the
// daemon documents, loads the referenced files, and validates the result —
// the daemon's main() only parses flags and handles errors.
type ServeOptions struct {
	// SchemaPath is a schema JSON file; empty boots the built-in synthetic
	// financial-institute schema (Size/Seed control the generator).
	SchemaPath string
	// RulesPath is a rule file. Required with SchemaPath; optional with the
	// synthetic schema (empty: the generated incumbent rules).
	RulesPath string
	// HistoryPath continues a JSON rule history (the stateless persistence
	// mode; mutually exclusive with DataDir).
	HistoryPath string
	// DataDir enables durable serving state (WAL + snapshots).
	DataDir string
	// FollowURL runs the daemon as a read-only replication follower of the
	// leader at this base URL. The schema is fetched from the leader's
	// GET /v1/schema (retrying while the leader boots), so a follower needs
	// no local files at all; mutually exclusive with SchemaPath, RulesPath,
	// HistoryPath and DataDir.
	FollowURL string
	// Fsync, FsyncInterval, SnapshotInterval and WALSegmentBytes are the
	// durability knobs (see serve.Config); they require DataDir.
	Fsync            string
	FsyncInterval    time.Duration
	SnapshotInterval time.Duration
	WALSegmentBytes  int64
	// Size and Seed parameterize the synthetic dataset when SchemaPath is
	// empty.
	Size int
	Seed int64
	// Workers, MaxBatch, Drain and TraceCapacity map onto the serve.Config
	// fields of the same names (0 means the serving default).
	Workers       int
	MaxBatch      int
	Drain         time.Duration
	TraceCapacity int
	// SlowRing and SlowFloor shape the tail-sampled slow-request ring behind
	// GET /v1/debug/slow: the ring capacity (0 means the serving default,
	// negative disables) and the explicit promotion floor (0 means
	// adaptive-p99-only).
	SlowRing  int
	SlowFloor time.Duration
	// AuditRing, AuditSample and DriftHalfLife are the rule observability
	// knobs: the sampled decision audit ring capacity, the 1-in-N audit
	// sampling rate and the fire-rate drift EWMA half-life (see
	// serve.Config; 0 means the serving default, negative disables where the
	// field documents it).
	AuditRing     int
	AuditSample   int
	DriftHalfLife time.Duration
	// AlertsPath is a declarative alert-rule file (see internal/alert);
	// empty keeps the compiled-in default rules. AlertInterval is the
	// evaluation period (0 means the serving default, negative disables the
	// periodic evaluator). AlertWebhook receives firing/resolved
	// transitions as JSON POSTs.
	AlertsPath    string
	AlertInterval time.Duration
	AlertWebhook  string
	// Logger receives the daemon's structured logs.
	Logger *slog.Logger
}

// ServerConfig builds and validates the serving configuration from the
// options. Every error is actionable at the flag level.
func (o ServeOptions) ServerConfig() (serve.Config, error) {
	cfg := serve.Config{
		Workers:          o.Workers,
		MaxBatch:         o.MaxBatch,
		DrainTimeout:     o.Drain,
		TraceCapacity:    o.TraceCapacity,
		SlowRingCapacity: o.SlowRing,
		SlowFloor:        o.SlowFloor,
		Logger:           o.Logger,
		DataDir:          o.DataDir,
		Fsync:            o.Fsync,
		FsyncInterval:    o.FsyncInterval,
		SnapshotInterval: o.SnapshotInterval,
		WALSegmentBytes:  o.WALSegmentBytes,
		AuditCapacity:    o.AuditRing,
		AuditSampleEvery: o.AuditSample,
		DriftHalfLife:    o.DriftHalfLife,
		AlertInterval:    o.AlertInterval,
		AlertWebhook:     o.AlertWebhook,
	}
	if o.AlertsPath != "" {
		alertRules, err := LoadAlertRules(o.AlertsPath)
		if err != nil {
			return serve.Config{}, err
		}
		cfg.AlertRules = alertRules
	}
	if o.HistoryPath != "" && o.DataDir != "" {
		return serve.Config{}, errors.New("-history and -data-dir are mutually exclusive: the data directory persists its own version history")
	}
	if o.FollowURL != "" {
		// A follower's entire state — schema, rules, history, feedback —
		// replicates from the leader; any local source of the same state
		// would conflict with it.
		switch {
		case o.DataDir != "":
			return serve.Config{}, errors.New("-follow and -data-dir are mutually exclusive: a follower's durable state is the leader's")
		case o.HistoryPath != "":
			return serve.Config{}, errors.New("-follow and -history are mutually exclusive: a follower replicates the leader's history")
		case o.SchemaPath != "":
			return serve.Config{}, errors.New("-follow and -schema are mutually exclusive: a follower fetches the schema from the leader")
		case o.RulesPath != "":
			return serve.Config{}, errors.New("-follow and -rules are mutually exclusive: a follower replicates the leader's published rules")
		}
		cfg.FollowURL = o.FollowURL
		schema, err := FetchSchema(o.FollowURL)
		if err != nil {
			return serve.Config{}, err
		}
		cfg.Schema = schema
		if err := cfg.Validate(); err != nil {
			return serve.Config{}, err
		}
		return cfg, nil
	}

	if o.SchemaPath != "" {
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
	} else {
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

	if o.HistoryPath != "" {
		hist, err := LoadOrNewHistory(o.HistoryPath, cfg.Schema)
		if err != nil {
			return serve.Config{}, err
		}
		cfg.History = hist
	}

	if err := cfg.Validate(); err != nil {
		return serve.Config{}, err
	}
	return cfg, nil
}
