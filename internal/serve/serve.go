// Package serve is the online scoring service: a stdlib-only net/http
// daemon that evaluates the current rule set against live transaction
// traffic, ingests analyst feedback, and refines its rules in place.
//
// The paper's RUDOLF refines rules offline, but its premise is that the
// refined set is then deployed against live card traffic — financial
// institutes run rule systems as high-throughput online scorers whose rules
// are hot-swapped as analysts iterate. This package is that deployment
// layer over the repository's evaluation core:
//
//   - The public surface is the versioned /v1 API: POST /v1/score,
//     GET+POST /v1/rules, POST /v1/feedback, POST /v1/refine, GET
//     /v1/stats, GET /v1/schema, GET /v1/trace. Every non-2xx JSON response
//     carries the uniform error envelope
//     {"error":{"code","message","request_id"}} with stable machine codes.
//   - The published rule set lives behind an atomic pointer as a
//     ruleState (rule set + compiled index.Evaluator + version). Scoring
//     requests load the pointer exactly once, so every response is
//     consistent with exactly one version; swaps compile off to the side
//     and publish with a single atomic store (no torn reads, no locks on
//     the hot path — serve_test.go hammers this under -race). POST
//     /v1/rules accepts If-Match on the version for optimistic
//     concurrency (409 conflict on mismatch).
//   - Versions are committed to an internal/history store: every
//     POST /v1/rules swap and every /v1/refine round is a durable,
//     diffable rule-set version, mirroring the FI change histories of the
//     paper.
//   - With Config.DataDir set, serving state is durable: every feedback
//     batch and every publish is written to an internal/wal write-ahead
//     log before it is acknowledged, periodic snapshots bound replay
//     time, and New replays snapshot+WAL before returning — a crashed
//     daemon restarts with the exact version and feedback it acked. The
//     leader, that replay and a follower all change state through the one
//     state machine in state.go. See durable.go and DESIGN.md §11.
//   - Feedback (fraud/legit verdicts, plus unlabeled context traffic)
//     appends to a server-side relation watched by an incremental
//     capture.Cache, so POST /v1/refine runs a refinement session in
//     place and atomically publishes the result.
//   - A bounded worker pool (semaphore) caps concurrent scoring
//     evaluations; inside a slot, batches reuse the chunk-parallel
//     compiled evaluator.
//   - Production plumbing: per-endpoint timeouts, max body bytes,
//     /healthz, /readyz (flips to 503 while draining), graceful drain,
//     and /metrics in Prometheus text format via internal/telemetry.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"mime"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/alert"
	"repro/internal/capture"
	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/index"
	"repro/internal/relation"
	"repro/internal/rules"
	"repro/internal/rulestats"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/wal"
)

// Server is the scoring daemon. Create with New, mount via Handler, run
// with Serve (or any http.Server; call Close on teardown when running
// outside Serve).
type Server struct {
	cfg Config

	// replicated is the state machine behind every mutation (state.go): the
	// published rules, the version history, the feedback relation, the window
	// store and their locks.
	*replicated

	draining atomic.Bool
	// drainCh is closed (once) when draining starts; long-lived responses
	// (the /v1/wal/stream long-poll) select on it so graceful drain is never
	// blocked by an open replication stream.
	drainCh   chan struct{}
	drainOnce sync.Once

	// follower is the replication-side state when this server was built with
	// Config.FollowURL (nil on a leader); see follower.go.
	follower *followerState

	sem chan struct{}

	reg *telemetry.Registry
	// hot-path metrics, resolved once.
	mScoreTx      *telemetry.Counter
	mScoreAborted *telemetry.Counter
	mScoreLat     *telemetry.Histogram
	mBatchSize    *telemetry.Histogram
	mSwaps        *telemetry.Counter
	mRefines      *telemetry.Counter
	mRoundDur     *telemetry.Histogram
	mExpertGen    *telemetry.Counter
	mExpertSplit  *telemetry.Counter
	mSnapshots    *telemetry.Counter
	walCounters   wal.Counters
	// refineHits and refineMisses sum the capture-cache stats of refinement
	// sessions, whose caches do not outlive them.
	refineHits, refineMisses atomic.Uint64

	// Durability (nil / zero when Config.DataDir is empty; see durable.go).
	wal *wal.Log
	// lastSnapSeq: the newest snapshot's WAL seq; written under s.mu only.
	lastSnapSeq atomic.Uint64
	snapStop    chan struct{}
	snapDone    chan struct{}
	closeOnce   sync.Once
	closeErr    error

	// alerts is the embedded alert engine (DESIGN.md §17): declarative
	// threshold rules over the telemetry registry, rule health and
	// replication state, evaluated on its own ticker so the score hot path
	// never pays for it. alertStop/alertDone bracket the ticker goroutine
	// (nil when Config.AlertInterval < 0).
	alerts    *alert.Engine
	alertStop chan struct{}
	alertDone chan struct{}

	// tracer records request/refinement spans; reqSeq numbers requests for
	// the X-Request-Id header echoed in every JSON response.
	tracer *trace.Tracer
	reqSeq atomic.Uint64
	log    *slog.Logger

	// attrJSON holds each schema attribute name pre-escaped as a JSON string
	// literal (quotes included), indexed by attribute — the encode path's
	// lookup table (see encode.go).
	attrJSON []string
	// httpCounters caches the per-{path,code} request counters so instrument
	// never formats a metric name on the hot path.
	httpCounters sync.Map // httpCounterKey -> *telemetry.Counter
	// mFeedbackLabel holds the per-label feedback counters, resolved once.
	mFeedbackFraud     *telemetry.Counter
	mFeedbackLegit     *telemetry.Counter
	mFeedbackUnlabeled *telemetry.Counter

	// Observability (DESIGN.md §15): the per-stage latency histograms of the
	// score hot path. Every series some subsystem already counts is read
	// from it at read time (see collectReadTime).
	mStage  [numStages]*telemetry.Histogram
	started time.Time
}

// Version identifies the daemon build in /v1/status and the
// rudolf_build_info metric. Overridable at link time:
//
//	go build -ldflags "-X repro/internal/serve.Version=v1.2.3" ./cmd/rudolfd
var Version = "dev"

// httpCounterKey keys the cached rudolf_http_requests_total counters.
type httpCounterKey struct {
	path string
	code int
}

// New validates cfg, restores any durable state under cfg.DataDir (snapshot
// plus write-ahead log, replayed before New returns, so the server is never
// reachable with half-restored state), and publishes the initial rules as
// version 1 on a first boot.
func New(cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	stats := rulestats.New(rulestats.Config{
		HalfLife:      cfg.DriftHalfLife,
		BaselineMinTx: uint64(cfg.BaselineMinTx),
		AuditCapacity: cfg.AuditCapacity,
		SampleEvery:   cfg.AuditSampleEvery,
	})
	state, err := newReplicated(cfg.Schema, cfg.History, stats)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:        cfg,
		replicated: state,
		sem:        make(chan struct{}, cfg.Workers),
		reg:        cfg.Registry,
		log:        cfg.Logger,
		started:    time.Now(),
		drainCh:    make(chan struct{}),
	}
	if cfg.FollowURL != "" {
		s.follower = &followerState{leaderURL: strings.TrimRight(cfg.FollowURL, "/")}
	}
	s.attrJSON = make([]string, cfg.Schema.Arity())
	for i := range s.attrJSON {
		s.attrJSON[i] = string(appendJSONString(nil, cfg.Schema.Attr(i).Name))
	}
	s.initMetrics()
	// The tracer's completion hook derives the refinement metrics straight
	// from the spans, so the histogram and the trace can never disagree.
	s.tracer = trace.New(trace.Options{
		Capacity: cfg.TraceCapacity,
		// Tail sampling: score/rules/... request roots slower than the live
		// threshold keep their whole span tree in the slow ring for
		// GET /v1/debug/slow. withDefaults already turned "disabled" into 0.
		SlowCapacity:   cfg.SlowRingCapacity,
		SlowFloor:      cfg.SlowFloor,
		SlowRootPrefix: "request.",
		OnEnd: func(r trace.Record) {
			switch r.Name {
			case "refine.round":
				s.mRoundDur.Observe(r.Dur.Seconds())
			case "expert.review_generalization":
				s.mExpertGen.Inc()
			case "expert.review_split":
				s.mExpertSplit.Inc()
			}
		}})
	s.cache.Tracer = s.tracer
	s.onInstall = s.published

	restored := false
	if cfg.DataDir != "" {
		restored, err = s.openDurability()
		if err != nil {
			return nil, err
		}
	}
	// A follower's entire state is a function of the leader's WAL: it mints
	// no local version 1 and serves the empty version 0 (zero rules, nothing
	// flags) until Follow bootstraps; /readyz reports not-ready until then.
	// The leader's first WAL record is its own v1 publish, which replays here.
	if s.follower == nil && !restored {
		s.mu.Lock()
		_, err := s.publishLocked(cfg.Rules.Clone(), nil, "initial rules")
		s.mu.Unlock()
		if err != nil {
			if s.wal != nil {
				s.wal.Close() //nolint:errcheck // already failing
			}
			return nil, err
		}
	}
	if s.wal != nil && cfg.SnapshotInterval > 0 {
		s.snapStop = make(chan struct{})
		s.snapDone = make(chan struct{})
		go s.snapshotLoop(cfg.SnapshotInterval)
	}

	// The alert engine always exists (GET /v1/alerts and POST /v1/alerts
	// work even with the ticker disabled); the periodic evaluator only runs
	// for a positive interval. It reads the registry /metrics renders, so
	// both see the same number.
	alertCfg := alert.Config{
		Rules:    cfg.AlertRules,
		Interval: cfg.AlertInterval,
		Sources: alert.Sources{
			Metrics:   s.reg,
			RuleStats: s.ruleHealth,
		},
		Logger: s.log,
	}
	if cfg.AlertWebhook != "" {
		alertCfg.Webhook = &alert.WebhookConfig{URL: cfg.AlertWebhook}
	}
	s.alerts = alert.NewEngine(alertCfg)
	if cfg.AlertInterval > 0 {
		s.alertStop = make(chan struct{})
		s.alertDone = make(chan struct{})
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			defer close(s.alertDone)
			defer cancel()
			go func() { <-s.alertStop; cancel() }()
			s.alerts.Run(ctx)
		}()
	}
	return s, nil
}

// Tracer returns the daemon's span tracer (never nil), for callers that want
// to dump traces out of band of GET /v1/trace.
func (s *Server) Tracer() *trace.Tracer { return s.tracer }

func (s *Server) initMetrics() {
	r := s.reg
	r.Help("rudolf_http_requests_total", "HTTP requests served, by path and status code.")
	r.Help("rudolf_score_tx_total", "Transactions scored.")
	r.Help("rudolf_score_aborted_total", "Score responses whose connection was aborted after part of the body was sent (a write failed or hit the deadline).")
	r.Help("rudolf_score_latency_seconds", "Whole-batch scoring request latency (one observation per /v1/score request).")
	r.Help("rudolf_score_batch_size", "Transactions per /v1/score request.")
	r.Help("rudolf_score_inflight", "Scoring requests currently holding a worker slot.")
	r.Help("rudolf_rules_version", "Published rule-set version (history id); survives restarts via the WAL.")
	r.Help("rudolf_rules_count", "Rules in the published set.")
	r.Help("rudolf_rule_swaps_total", "Rule-set publishes (swaps + refines + initial).")
	r.Help("rudolf_refines_total", "Completed /v1/refine rounds.")
	r.Help("rudolf_feedback_tx_total", "Feedback transactions ingested, by label.")
	r.Help("rudolf_capture_cache_hits_total", "Capture-cache queries answered incrementally, by caller.")
	r.Help("rudolf_capture_cache_misses_total", "Capture-cache queries that forced a full rebind, by caller.")
	r.Help("rudolf_refine_round_duration_seconds", "Wall-clock duration of one generalize+specialize refinement round.")
	r.Help("rudolf_expert_queries_total", "Expert proposals reviewed during refinement, by proposal kind.")
	r.Help("rudolf_wal_appends_total", "Records appended to the write-ahead log.")
	r.Help("rudolf_wal_fsyncs_total", "fsync(2) calls issued by the write-ahead log.")
	r.Help("rudolf_wal_replayed_records_total", "Durable WAL records replayed at boot.")
	r.Help("rudolf_wal_torn_tail_drops_total", "Torn final WAL records dropped at boot.")
	r.Help("rudolf_snapshots_total", "Durable snapshots written.")
	r.Help("rudolf_rule_fires_total", "Scored transactions whose first matching rule this was under the published version, by rule index (the first "+strconv.Itoa(ruleLabelCap)+" rules; the rest sum into rule=\"other\").")
	r.Help("rudolf_rule_feedback_tp_total", "Fraud-labeled feedback transactions captured under the published version, by rule index.")
	r.Help("rudolf_rule_feedback_fp_total", "Legit-labeled feedback transactions captured under the published version, by rule index.")
	r.Help("rudolf_rule_drift", "Per-rule fire-rate drift vs the post-publish baseline (0 = unchanged, 1 = moved by its whole baseline; -1 = not yet measurable).")
	r.Help("rudolf_rule_last_fired_ago_seconds", "Seconds since the rule last fired under the published version (-1 = never).")
	r.Help("rudolf_stage_duration_seconds", "Score hot-path latency by stage (decode, acquire, wal_append, window, eval, encode, write); a streamed response alternates encode and write per chunk.")
	r.Help("rudolf_window_entries", "Live sliding-window aggregate entries across all shards.")
	r.Help("rudolf_window_watermark_minutes", "Sliding-window event-time watermark (epoch minutes).")
	r.Help("rudolf_window_evictions_total", "Window entries evicted, by cause (expired = dead under the watermark; lru = capacity pressure).")
	r.Help("rudolf_wal_append_seconds", "WAL append latency: frame encode + write, excluding fsync.")
	r.Help("rudolf_wal_fsync_seconds", "WAL fsync(2) latency.")
	r.Help("rudolf_wal_segments", "Live WAL segment files.")
	r.Help("rudolf_wal_disk_bytes", "Bytes across live WAL segment files.")
	r.Help("rudolf_trace_slow_promoted_total", "Requests promoted into the slow-request ring (GET /v1/debug/slow).")
	r.Help("rudolf_trace_slow_threshold_seconds", "Current slow-ring promotion threshold (the lower of the adaptive p99 and the configured floor).")
	r.Help("rudolf_go_goroutines", "Live goroutines.")
	r.Help("rudolf_go_heap_bytes", "Heap bytes occupied by live objects.")
	r.Help("rudolf_go_heap_objects", "Live heap objects.")
	r.Help("rudolf_go_gc_cycles", "Completed GC cycles.")
	r.Help("rudolf_go_gc_pause_seconds", "GC stop-the-world pause durations (re-bucketed from runtime/metrics).")
	s.mScoreTx = r.Counter("rudolf_score_tx_total")
	s.mScoreAborted = r.Counter("rudolf_score_aborted_total")
	s.mScoreLat = r.Histogram("rudolf_score_latency_seconds", nil)
	s.mBatchSize = r.Histogram("rudolf_score_batch_size", []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096})
	s.mSwaps = r.Counter("rudolf_rule_swaps_total")
	s.mRefines = r.Counter("rudolf_refines_total")
	s.mRoundDur = r.Histogram("rudolf_refine_round_duration_seconds", nil)
	s.mExpertGen = r.Counter(`rudolf_expert_queries_total{kind="generalization"}`)
	s.mExpertSplit = r.Counter(`rudolf_expert_queries_total{kind="split"}`)
	s.mSnapshots = r.Counter("rudolf_snapshots_total")
	s.mFeedbackFraud = r.Counter(`rudolf_feedback_tx_total{label="fraud"}`)
	s.mFeedbackLegit = r.Counter(`rudolf_feedback_tx_total{label="legit"}`)
	s.mFeedbackUnlabeled = r.Counter(`rudolf_feedback_tx_total{label="unlabeled"}`)
	s.walCounters = wal.Counters{
		AppendSeconds: r.Histogram("rudolf_wal_append_seconds", telemetry.StageBuckets),
		FsyncSeconds:  r.Histogram("rudolf_wal_fsync_seconds", telemetry.StageBuckets),
	}
	for st := stage(0); st < numStages; st++ {
		s.mStage[st] = r.Histogram(`rudolf_stage_duration_seconds{stage="`+stageNames[st]+`"}`, telemetry.StageBuckets)
	}
	if s.follower != nil {
		r.Help("rudolf_replica_applied_seq", "Last leader WAL sequence number applied by this follower.")
		r.Help("rudolf_replica_lag_records", "Records this follower trails the last known leader position.")
		r.Help("rudolf_replica_reconnects_total", "Times the follower's replication stream reconnected to the leader.")
		r.Collect(map[string]string{
			"rudolf_replica_applied_seq":      "gauge",
			"rudolf_replica_lag_records":      "gauge",
			"rudolf_replica_reconnects_total": "counter",
		}, s.follower.collect)
	}
	s.collectReadTime(r)
	// Build identity: a constant-1 gauge whose labels carry the versions, the
	// standard Prometheus idiom for joining build metadata onto any query.
	r.Help("rudolf_build_info", "Build metadata: constant 1, labeled with the Go runtime version and the daemon version.")
	r.Gauge(`rudolf_build_info{go_version="` + telemetry.EscapeLabel(runtime.Version()) + `",version="` + telemetry.EscapeLabel(Version) + `"}`).Set(1)
}

// collectReadTime registers the read-time series of the serving state and
// its subsystems, one source per owner, so each read takes at most that
// owner's lock once. Nothing here is copied or cached: /metrics, the alert
// engine and GET /v1/debug/state read the same numbers from the same place.
func (s *Server) collectReadTime(r *telemetry.Registry) {
	r.Collect(map[string]string{
		"rudolf_score_inflight": "gauge",
		"rudolf_rules_version":  "gauge",
		"rudolf_rules_count":    "gauge",
	}, func(emit func(string, float64)) {
		st := s.state.Load()
		emit("rudolf_score_inflight", float64(len(s.sem)))
		emit("rudolf_rules_version", float64(st.version))
		emit("rudolf_rules_count", float64(st.set.Len()))
	})
	r.Collect(map[string]string{
		"rudolf_rule_fires_total":            "counter",
		"rudolf_rule_feedback_tp_total":      "counter",
		"rudolf_rule_feedback_fp_total":      "counter",
		"rudolf_rule_drift":                  "gauge",
		"rudolf_rule_last_fired_ago_seconds": "gauge",
	}, s.collectRuleHealth)
	r.Collect(map[string]string{
		"rudolf_capture_cache_hits_total":   "counter",
		"rudolf_capture_cache_misses_total": "counter",
	}, func(emit func(string, float64)) {
		hits, rebinds, _ := s.cache.Stats()
		emit(`rudolf_capture_cache_hits_total{caller="serve"}`, float64(hits))
		emit(`rudolf_capture_cache_misses_total{caller="serve"}`, float64(rebinds))
		emit(`rudolf_capture_cache_hits_total{caller="refine"}`, float64(s.refineHits.Load()))
		emit(`rudolf_capture_cache_misses_total{caller="refine"}`, float64(s.refineMisses.Load()))
	})
	r.Collect(map[string]string{
		"rudolf_window_entries":           "gauge",
		"rudolf_window_watermark_minutes": "gauge",
		"rudolf_window_evictions_total":   "counter",
	}, func(emit func(string, float64)) {
		var entries, watermark, expired, lru int64
		if s.winStore != nil {
			entries, watermark = s.winStore.Entries(), s.winStore.Watermark()
			expired, lru = s.winStore.EvictionsByCause()
		}
		emit("rudolf_window_entries", float64(entries))
		emit("rudolf_window_watermark_minutes", float64(watermark))
		emit(`rudolf_window_evictions_total{cause="expired"}`, float64(expired))
		emit(`rudolf_window_evictions_total{cause="lru"}`, float64(lru))
	})
	r.Collect(map[string]string{
		"rudolf_wal_appends_total":          "counter",
		"rudolf_wal_fsyncs_total":           "counter",
		"rudolf_wal_replayed_records_total": "counter",
		"rudolf_wal_torn_tail_drops_total":  "counter",
		"rudolf_wal_segments":               "gauge",
		"rudolf_wal_disk_bytes":             "gauge",
	}, func(emit func(string, float64)) {
		var st wal.Stats
		if s.wal != nil {
			st = s.wal.Stats()
		}
		emit("rudolf_wal_appends_total", float64(st.Appends))
		emit("rudolf_wal_fsyncs_total", float64(st.Fsyncs))
		emit("rudolf_wal_replayed_records_total", float64(st.Replayed))
		emit("rudolf_wal_torn_tail_drops_total", float64(st.TornTailDrops))
		emit("rudolf_wal_segments", float64(st.Segments))
		emit("rudolf_wal_disk_bytes", float64(st.DiskBytes))
	})
	r.Collect(map[string]string{
		"rudolf_trace_slow_promoted_total":    "counter",
		"rudolf_trace_slow_threshold_seconds": "gauge",
	}, func(emit func(string, float64)) {
		ss := s.tracer.SlowStats()
		emit("rudolf_trace_slow_promoted_total", float64(ss.Promoted))
		emit("rudolf_trace_slow_threshold_seconds", ss.Threshold.Seconds())
	})
	r.Collect(map[string]string{
		"rudolf_go_goroutines":   "gauge",
		"rudolf_go_heap_bytes":   "gauge",
		"rudolf_go_heap_objects": "gauge",
		"rudolf_go_gc_cycles":    "gauge",
	}, func(emit func(string, float64)) {
		rt := readRuntime()
		emit("rudolf_go_goroutines", float64(rt.goroutines))
		emit("rudolf_go_heap_bytes", float64(rt.heapBytes))
		emit("rudolf_go_heap_objects", float64(rt.heapObjects))
		emit("rudolf_go_gc_cycles", float64(rt.gcCycles))
	})
	r.HistogramFunc("rudolf_go_gc_pause_seconds", telemetry.StageBuckets, gcPauses)
}

// ruleLabelCap bounds the per-rule series: rules past it get none of their
// own. Their fire and feedback counts sum into rule="other"; their drift
// and staleness are not exported, since no one value stands for many rules.
const ruleLabelCap = 128

// collectRuleHealth emits the per-rule families from the published
// version's health snapshot, the one GET /v1/rules/health serves: only that
// version's rules appear, and their counters start from zero at its publish.
func (s *Server) collectRuleHealth(emit func(string, float64)) {
	rules := s.ruleHealth().Rules
	var other rulestats.RuleHealth
	for _, h := range rules {
		if h.Rule >= ruleLabelCap {
			other.Fires += h.Fires
			other.TP += h.TP
			other.FP += h.FP
			continue
		}
		l := `{rule="` + strconv.Itoa(h.Rule) + `"}`
		emit("rudolf_rule_fires_total"+l, float64(h.Fires))
		emit("rudolf_rule_feedback_tp_total"+l, float64(h.TP))
		emit("rudolf_rule_feedback_fp_total"+l, float64(h.FP))
		emit("rudolf_rule_drift"+l, h.Drift)
		emit("rudolf_rule_last_fired_ago_seconds"+l, h.LastFiredAgo)
	}
	if len(rules) > ruleLabelCap {
		const l = `{rule="other"}`
		emit("rudolf_rule_fires_total"+l, float64(other.Fires))
		emit("rudolf_rule_feedback_tp_total"+l, float64(other.TP))
		emit("rudolf_rule_feedback_fp_total"+l, float64(other.FP))
	}
}

// publishLocked commits rs as the next version and returns the state it
// produced. Callers hold s.mu; obsMu joins it for the commit.
func (s *Server) publishLocked(rs *rules.Set, mods []core.Modification, comment string) (*ruleState, error) {
	v := s.hist.Build(rs, mods, comment)
	s.obsMu.Lock()
	err := s.commit(&walRecord{Type: recPublish, Time: v.Time, Publish: &v})
	s.obsMu.Unlock()
	if err != nil {
		return nil, err
	}
	return s.state.Load(), nil
}

// published is the state machine's onInstall hook: the non-replicated side
// effects of a newly installed version, whichever role installed it and
// however (live publish, replayed or replicated publish record, snapshot).
func (s *Server) published(st *ruleState, seq uint64, comment string) {
	s.mSwaps.Inc()
	s.log.Info("rules published", "version", st.version, "rules", st.set.Len(), "seq", seq, "comment", comment)
}

// captureLocked returns the capture cache bound to the feedback relation
// and the published rules; the cache counts hits (incremental) vs rebinds.
// Callers hold s.mu.
func (s *Server) captureLocked(st *ruleState) *capture.Cache {
	s.cache.Ensure(s.feedback, st.set)
	return s.cache
}

// Version returns the currently published rules version.
func (s *Server) Version() int { return s.state.Load().version }

// Rules returns the currently published rule set (read-only).
func (s *Server) Rules() *rules.Set { return s.state.Load().set }

// History returns the server's version store.
func (s *Server) History() *history.Store { return s.hist }

// Registry returns the server's telemetry registry.
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// feedbackLen returns the number of feedback transactions ingested (live
// plus replayed).
func (s *Server) feedbackLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.feedback.Len()
}

// SetDraining flips readiness: a draining server answers /readyz with 503
// so load balancers stop routing to it, while in-flight and late requests
// still complete. Entering the draining state also ends any open
// /v1/wal/stream long-polls (they would otherwise hold graceful shutdown
// open indefinitely); followers reconnect on their own schedule.
func (s *Server) SetDraining(v bool) {
	s.draining.Store(v)
	if v {
		s.drainOnce.Do(func() { close(s.drainCh) })
	}
}

// Handler returns the daemon's route table: the versioned /v1 surface and
// the unversioned infrastructure endpoints (/healthz, /readyz, /metrics).
// Anything else answers the uniform 404 envelope.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	// mount instruments h under the request span request.<span>.
	mount := func(path, span string, h http.Handler) { mux.Handle(path, s.instrument(path, span, h)) }
	// Every route with a deadline owns it (see ownDeadline).
	mount("/v1/score", "score", s.ownDeadline(http.HandlerFunc(s.handleScore), s.cfg.ScoreTimeout))
	// The mutating routes are wrapped by the read-only guard: on a follower
	// their write methods answer 403 "read_only" with a Location header
	// pointing at the leader; their read methods (GET /v1/rules) and
	// wrong-method 405s pass through. No-op on a leader.
	mount("/v1/rules", "rules", s.readOnly(s.ownDeadline(http.HandlerFunc(s.handleRules), s.cfg.SwapTimeout), http.MethodPost))
	mount("/v1/feedback", "feedback", s.readOnly(s.ownDeadline(http.HandlerFunc(s.handleFeedback), s.cfg.FeedbackTimeout), http.MethodPost))
	mount("/v1/refine", "refine", s.readOnly(s.ownDeadline(http.HandlerFunc(s.handleRefine), s.cfg.RefineTimeout), http.MethodPost))
	mount("/v1/stats", "stats", http.HandlerFunc(s.handleStats))
	mount("/v1/schema", "schema", http.HandlerFunc(s.handleSchema))
	mount("/v1/rules/health", "rules_health", http.HandlerFunc(s.handleRuleHealth))
	mount("/v1/audit", "audit", http.HandlerFunc(s.handleAudit))
	// /v1/alerts: the alert engine's readout and rule surface. Deliberately
	// not readOnly-wrapped — each node alerts on its own signals (a
	// follower's replication lag is exactly what its alert rules watch), so
	// rule installs are node-local on every role. See DESIGN.md §17.
	mount("/v1/alerts", "alerts", http.HandlerFunc(s.handleAlerts))
	// /v1/status: the role-aware node identity document, served identically
	// by leaders and followers.
	mount("/v1/status", "status", http.HandlerFunc(s.handleStatus))
	// The replication surface (leader side; see replication.go). The manifest
	// and snapshot endpoints are ordinary instrumented GETs; the stream is
	// deliberately uninstrumented and untimed — it is long-lived by design
	// (a span that lives for minutes would always be promoted into the slow
	// ring, and a timeout would sever healthy followers).
	mount("/v1/wal/segments", "wal_segments", http.HandlerFunc(s.handleWALSegments))
	mount("/v1/wal/snapshot", "wal_snapshot", http.HandlerFunc(s.handleWALSnapshot))
	mux.Handle("/v1/wal/stream", http.HandlerFunc(s.handleWALStream))
	// /v1/trace is deliberately uninstrumented: fetching the trace must not
	// append request spans to the very ring being exported.
	mux.Handle("/v1/trace", http.HandlerFunc(s.handleTrace))
	// The debug endpoints are uninstrumented for the same reason: inspecting
	// the slow ring must not mint request spans that could themselves be
	// promoted into it.
	mux.Handle("/v1/debug/slow", http.HandlerFunc(s.handleDebugSlow))
	mux.Handle("/v1/debug/state", http.HandlerFunc(s.handleDebugState))
	mux.Handle("/healthz", http.HandlerFunc(s.handleHealthz))
	mux.Handle("/readyz", http.HandlerFunc(s.handleReadyz))
	mux.Handle("/metrics", s.reg.Handler())
	mux.Handle("/", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.writeErrorID(w, "", http.StatusNotFound, CodeNotFound, "no route %s %s (the API lives under /v1)", r.Method, r.URL.Path)
	}))
	return mux
}

// handleTrace exports the daemon's recent spans: Chrome trace_event JSON by
// default (loadable in chrome://tracing / ui.perfetto.dev), JSONL with
// ?format=jsonl.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.methodNotAllowed(w, r, http.MethodGet)
		return
	}
	recs := s.tracer.Snapshot()
	switch f := r.URL.Query().Get("format"); f {
	case "", "chrome":
		w.Header().Set("Content-Type", "application/json")
		trace.WriteChrome(w, recs) //nolint:errcheck // client gone: nothing to do
	case "jsonl":
		w.Header().Set("Content-Type", "application/x-ndjson")
		trace.WriteJSONL(w, recs) //nolint:errcheck // client gone: nothing to do
	default:
		s.writeErrorID(w, "", http.StatusBadRequest, CodeBadRequest, "unknown format %q (want chrome or jsonl)", f)
	}
}

// Serve runs the daemon on ln until ctx is canceled, then drains: readiness
// flips first, then the listener closes, in-flight requests get
// DrainTimeout to finish, and the durable state is flushed (final snapshot
// + WAL fsync) via Close.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	hs := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	errc := make(chan error, 1)
	s.log.Info("serving", "addr", ln.Addr().String(), "workers", s.cfg.Workers)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		s.Close() //nolint:errcheck // serve error wins
		return err
	case <-ctx.Done():
	}
	s.log.Info("draining", "timeout", s.cfg.DrainTimeout)
	s.SetDraining(true)
	shutCtx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		s.Close() //nolint:errcheck // drain error wins
		return fmt.Errorf("serve: drain: %w", err)
	}
	<-errc // hs.Serve returned http.ErrServerClosed
	return s.Close()
}

// ownDeadline runs h on the request goroutine under a context that ends d
// after the request reached it, and sets the connection's read and write
// deadlines to that same instant through http.ResponseController. There is
// no second goroutine and no response buffer: h checks the context itself
// at the points where a 503 is still possible — waiting for a worker slot
// or the control-plane lock (lockCommit), and in a refinement session
// before every expert query — and once its first byte is out the write
// deadline is the only bound (see scoreStream.write for what a write that
// fails then does).
func (s *Server) ownDeadline(h http.Handler, d time.Duration) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		deadline, _ := ctx.Deadline()
		// ErrNotSupported (a writer with no connection behind it, such as an
		// httptest.ResponseRecorder) leaves the context as the only bound.
		rc := http.NewResponseController(w)
		rc.SetReadDeadline(deadline)  //nolint:errcheck // see above
		rc.SetWriteDeadline(deadline) //nolint:errcheck // see above
		h.ServeHTTP(w, r.WithContext(ctx))
	})
}

// statusWriter records the response code for the request counter.
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

// methodNotAllowed answers a wrong-method request uniformly: 405 with the
// standard Allow header naming what the route does accept, and the uniform
// error envelope with the stable "method_not_allowed" code.
func (s *Server) methodNotAllowed(w http.ResponseWriter, r *http.Request, allow ...string) {
	methods := strings.Join(allow, ", ")
	w.Header().Set("Allow", methods)
	s.writeError(w, r, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "%s is not allowed here (allow: %s)", r.Method, methods)
}

// writeError emits the uniform error envelope, carrying the request's id so
// failures are joinable against GET /v1/trace like successes are.
func (s *Server) writeError(w http.ResponseWriter, r *http.Request, status int, code, format string, args ...any) {
	s.writeErrorID(w, requestMeta(r).id, status, code, format, args...)
}

func (s *Server) writeErrorID(w http.ResponseWriter, requestID string, status int, code, format string, args ...any) {
	s.writeJSON(w, status, errorResponse{Error: errorBody{
		Code:      code,
		Message:   fmt.Sprintf(format, args...),
		RequestID: requestID,
	}})
}

func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		s.writeBodyError(w, r, fmt.Errorf("bad JSON: %w", err))
		return false
	}
	return true
}

// writeBodyError answers a request whose body could not be read or parsed.
// A body still arriving when the read deadline or the request context runs
// out is a timeout, not a bad body.
func (s *Server) writeBodyError(w http.ResponseWriter, r *http.Request, err error) {
	var tooBig *http.MaxBytesError
	switch {
	case errors.Is(err, os.ErrDeadlineExceeded) || r.Context().Err() != nil:
		s.writeTimeout(w, r, "reading the request body")
	case errors.As(err, &tooBig):
		s.writeError(w, r, http.StatusRequestEntityTooLarge, CodePayloadTooLarge, "body exceeds %d bytes", tooBig.Limit)
	default:
		s.writeError(w, r, http.StatusBadRequest, CodeBadRequest, "%v", err)
	}
}

// buildRelation parses and validates a wire batch into a relation, honoring
// labels when forFeedback is set.
func (s *Server) buildRelation(txs []txIn, forFeedback bool) (*relation.Relation, []relation.Label, error) {
	rel := relation.New(s.schema)
	labels := make([]relation.Label, 0, len(txs))
	for i, tx := range txs {
		t, err := parseTuple(s.schema, tx.Attrs)
		if err != nil {
			return nil, nil, fmt.Errorf("transaction %d: %w", i, err)
		}
		lab := relation.Unlabeled
		if forFeedback {
			lab, err = parseWireLabel(tx.Label)
			if err != nil {
				return nil, nil, fmt.Errorf("transaction %d: %w", i, err)
			}
			if tx.Label == "" {
				return nil, nil, fmt.Errorf("transaction %d: missing label (want fraud, legit or unlabeled)", i)
			}
		}
		if _, err := rel.Append(t, lab, tx.Score); err != nil {
			return nil, nil, fmt.Errorf("transaction %d: %w", i, err)
		}
		labels = append(labels, lab)
	}
	return rel, labels, nil
}

// acquire takes a worker-pool slot, respecting request cancellation.
func (s *Server) acquire(ctx context.Context) bool {
	select {
	case s.sem <- struct{}{}:
		return true
	case <-ctx.Done():
		return false
	}
}

func (s *Server) release() { <-s.sem }

// handleScore evaluates a batch against exactly one published version.
func (s *Server) handleScore(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.methodNotAllowed(w, r, http.MethodPost)
		return
	}
	// The stage clock splits this request's wall time across the stage
	// taxonomy (rudolf_stage_duration_seconds) and, when the request is
	// traced, emits stage.<name> child spans — so a slow-ring promotion
	// carries its own breakdown. Error returns flush whatever was timed.
	meta := requestMeta(r)
	clock := stageClock{parent: meta.span, hist: &s.mStage}
	defer clock.flush()
	clock.begin(stageDecode)
	var req scoreRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	txs := req.Transactions
	if txs == nil && req.Attrs != nil {
		txs = []txIn{{Attrs: req.Attrs, Score: req.Score}}
	}
	if len(txs) == 0 {
		s.writeError(w, r, http.StatusBadRequest, CodeBadRequest, "no transactions")
		return
	}
	if len(txs) > s.cfg.MaxBatch {
		s.writeError(w, r, http.StatusRequestEntityTooLarge, CodePayloadTooLarge, "batch of %d exceeds max %d", len(txs), s.cfg.MaxBatch)
		return
	}
	rel, _, err := s.buildRelation(txs, false)
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, CodeBadRequest, "%v", err)
		return
	}
	clock.begin(stageAcquire)
	// The first of the three deadline checks: acquire is context-aware.
	if !s.acquire(r.Context()) {
		if errors.Is(r.Context().Err(), context.DeadlineExceeded) {
			s.writeTimeout(w, r, "queued for a worker slot")
			return
		}
		s.writeError(w, r, http.StatusServiceUnavailable, CodeUnavailable, "canceled while queued for a worker slot")
		return
	}
	explain := req.Explain || req.ExplainAll
	sc := getScoreState()
	defer putScoreState(sc)
	start := time.Now()
	st := s.state.Load() // exactly one version per response
	observed := false
	// Windowed rules are stateful: every scored transaction is observed into
	// the live aggregate store (WAL first, when durable — the observation
	// must survive a crash or replayed aggregates diverge from what was
	// served), and the batch is stamped with the published specs' aggregate
	// columns, which the compiled evaluator's exact-match fast path then
	// reads. Window-less rule sets skip all of it: no lock, no WAL record.
	if len(st.winSpecs) > 0 && s.winStore != nil {
		clock.begin(stageWindow)
		if s.follower != nil {
			// A follower's window store mirrors the leader's observe stream;
			// local read traffic must not mutate it, so scoring stamps the
			// current aggregates read-only (no observe, no WAL, no obsMu —
			// the store's shard locks make reads safe against the replication
			// goroutine's concurrent Observe applies).
			rel.SetWindowColumns(s.winStore.PeekColumns(rel, st.winSpecs))
		} else {
			// The leader's observe commit, and the one mutation that does not
			// go through apply: StampColumns is apply(observe) — Observe per
			// tuple, in order — plus the per-tuple aggregate read this
			// response needs, which a replayed record has no use for.
			// Waiting on obsMu is attributed to the window stage; the durable
			// observe append (including its synchronous fsync) to wal_append.
			s.obsMu.Lock()
			// The second deadline check, the last point where a 503 can
			// still mean "not observed".
			if r.Context().Err() != nil {
				s.obsMu.Unlock()
				s.release()
				s.writeTimeout(w, r, "waiting to observe the batch")
				return
			}
			if s.wal != nil {
				clock.begin(stageWAL)
				_, err := s.walAppend(observeRecord(rel))
				clock.begin(stageWindow)
				if err != nil {
					s.obsMu.Unlock()
					s.release()
					s.writeError(w, r, http.StatusInternalServerError, CodeInternal, "persisting observations: %v", err)
					return
				}
			}
			rel.SetWindowColumns(s.winStore.StampColumns(rel, st.winSpecs))
			s.obsMu.Unlock()
			observed = true
		}
	}
	clock.begin(stageEval)
	s.evaluate(meta.span, st, sc, rel, explain)
	elapsed := time.Since(start).Seconds()
	s.release()
	// The third deadline check, before the first response byte. A request
	// that observed its batch skips it: its 503 would claim "not observed",
	// so it answers with what it scored, bounded by the write deadline alone.
	if !observed && r.Context().Err() != nil {
		s.writeTimeout(w, r, "scoring the batch")
		return
	}
	clock.begin(stageEncode)
	s.recordScore(meta.id, st, rel, sc.first)
	s.mScoreTx.Add(uint64(rel.Len()))
	s.mScoreLat.Observe(elapsed)
	s.mBatchSize.Observe(float64(rel.Len()))
	out := scoreStream{s: s, w: w, clock: &clock}
	sc.out = s.appendScoreResponse(sc.out[:0], out.flush, meta.id, st, sc, rel, req.Explain, req.ExplainAll)
	out.finish(sc.out)
}

// evaluate scores rel against st into sc. The default path computes
// first-match attribution instead of the bare union: same short-circuiting
// loop and chunking as Eval, one int32 write per tuple extra, and it is
// exactly what per-rule fire accounting needs. Explain mode runs the lazy
// attribution pass: margins are materialized for the rules that fire (what
// "why was this flagged" asks); explain_all re-derives the non-firing rules'
// margins at encode time.
func (s *Server) evaluate(sp trace.Span, st *ruleState, sc *scoreState, rel *relation.Relation, explain bool) {
	if !explain {
		sc.first = st.ev.EvalFirstIntoUnder(sp, rel, sc.first)
		return
	}
	st.ev.EvalAttributedLazyIntoUnder(sp, rel, &sc.attrib)
	if cap(sc.first) < rel.Len() {
		sc.first = make([]int32, rel.Len())
	}
	sc.first = sc.first[:rel.Len()]
	for i := range sc.attrib.Tuples {
		sc.first[i] = index.NoRule
		if m := sc.attrib.Tuples[i].Matched; len(m) > 0 {
			sc.first[i] = int32(m[0])
		}
	}
}

// writeTimeout answers a request whose deadline passed at a check point
// with 503 "timeout". The socket write deadline is that same, already past,
// instant; the envelope gets timeoutReplyGrace to reach the client.
func (s *Server) writeTimeout(w http.ResponseWriter, r *http.Request, during string) {
	http.NewResponseController(w).SetWriteDeadline(time.Now().Add(timeoutReplyGrace)) //nolint:errcheck // ErrNotSupported: no socket deadline to move
	s.writeError(w, r, http.StatusServiceUnavailable, CodeTimeout, "request deadline passed while %s", during)
}

// timeoutReplyGrace is how long a 503 "timeout" envelope may take to write
// once the request's own deadline has passed.
const timeoutReplyGrace = time.Second

// recordScore feeds one batch scored under st into st's health epoch and
// (for sampled decisions) the audit ring.
func (s *Server) recordScore(requestID string, st *ruleState, rel *relation.Relation, first []int32) {
	// Aggregate fires per batch so a 4k-tx batch costs the epoch at most one
	// add per distinct fired rule.
	nRules := st.set.Len()
	var counts []uint64
	for i, ri := range first {
		if ri >= 0 && int(ri) < nRules {
			if counts == nil {
				counts = make([]uint64, nRules)
			}
			counts[ri]++
		}
		if s.stats.ShouldSample() {
			s.stats.AddAudit(rulestats.AuditEntry{
				RequestID: requestID,
				Version:   st.version,
				Rule:      int(ri),
				Flagged:   ri != index.NoRule,
				Score:     rel.Score(i),
				Attrs:     renderAttrs(s.schema, rel, i),
			})
		}
	}
	st.health.RecordFires(len(first), counts)
}

// renderAttrs renders one tuple attribute-by-attribute in the schema's
// textual form (audit entries must stay meaningful after the schema's
// numeric encodings change).
func renderAttrs(schema *relation.Schema, rel *relation.Relation, i int) map[string]string {
	t := rel.Tuple(i)
	out := make(map[string]string, schema.Arity())
	for a := 0; a < schema.Arity(); a++ {
		out[schema.Attr(a).Name] = schema.FormatValue(a, t[a])
	}
	return out
}

// handleRules serves the published rules (GET, with the version as an ETag)
// and hot-swaps a new set (POST): parse + compile off to the side, then one
// atomic publish. POST honors If-Match on the version for optimistic
// concurrency — two racing operators cannot silently clobber each other.
func (s *Server) handleRules(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		st := s.state.Load()
		w.Header().Set("ETag", versionETag(st.version))
		s.writeJSON(w, http.StatusOK, rulesResponse{RequestID: requestMeta(r).id, Version: st.version, Count: len(st.texts), Rules: st.texts})
	case http.MethodPost:
		wantVersion, ok, err := parseIfMatch(r.Header.Get("If-Match"))
		if err != nil {
			s.writeError(w, r, http.StatusBadRequest, CodeBadRequest, "%v", err)
			return
		}
		texts, comment, err := readRulesBody(r)
		if err != nil {
			s.writeBodyError(w, r, err)
			return
		}
		rs := rules.NewSet()
		for i, text := range texts {
			rule, err := rules.Parse(s.schema, text)
			if err != nil {
				s.writeError(w, r, http.StatusBadRequest, CodeBadRequest, "rule %d: %v", i+1, err)
				return
			}
			rs.Add(rule)
		}
		if !s.lockCommit(w, r, "publish", false) {
			return
		}
		if ok {
			if cur := s.state.Load().version; cur != wantVersion {
				s.mu.Unlock()
				w.Header().Set("ETag", versionETag(cur))
				s.writeError(w, r, http.StatusConflict, CodeConflict,
					"published version is %d, If-Match wanted %d (re-read /v1/rules and retry)", cur, wantVersion)
				return
			}
		}
		st, err := s.publishLocked(rs, nil, comment)
		s.mu.Unlock()
		if err != nil {
			s.writeError(w, r, http.StatusInternalServerError, CodeInternal, "persisting publish: %v", err)
			return
		}
		w.Header().Set("ETag", versionETag(st.version))
		s.writeJSON(w, http.StatusOK, rulesResponse{RequestID: requestMeta(r).id, Version: st.version, Count: len(st.texts), Rules: st.texts})
	default:
		s.methodNotAllowed(w, r, http.MethodGet, http.MethodPost)
	}
}

// versionETag renders a rule-set version as a strong entity tag.
func versionETag(v int) string { return fmt.Sprintf("%q", strconv.Itoa(v)) }

// parseIfMatch parses an If-Match header carrying a rule-set version as
// written by versionETag (quotes optional; "*" matches anything and is
// reported as absent).
func parseIfMatch(h string) (version int, ok bool, err error) {
	h = strings.TrimSpace(h)
	if h == "" || h == "*" {
		return 0, false, nil
	}
	h = strings.TrimPrefix(h, "W/")
	h = strings.Trim(h, `"`)
	v, perr := strconv.Atoi(h)
	if perr != nil || v < 0 {
		return 0, false, fmt.Errorf("bad If-Match %q (want a rule-set version like %s)", h, versionETag(7))
	}
	return v, true, nil
}

// readRulesBody accepts either the JSON swap request or a text/plain rule
// file (one rule per line, '#' comments), so `curl --data-binary
// @rules.txt` works.
func readRulesBody(r *http.Request) (texts []string, comment string, err error) {
	ct := r.Header.Get("Content-Type")
	if mt, _, _ := mime.ParseMediaType(ct); mt == "" || mt == "application/json" {
		var req rulesSwapRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			return nil, "", fmt.Errorf("bad JSON: %w", err)
		}
		if req.Comment == "" {
			req.Comment = "POST /v1/rules"
		}
		return req.Rules, req.Comment, nil
	}
	raw, err := io.ReadAll(r.Body)
	if err != nil {
		return nil, "", err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		texts = append(texts, line)
	}
	return texts, "POST /v1/rules", nil
}

// handleFeedback appends labeled transactions to the server-side relation
// (WAL first, when durable) and reports which of them the current rules
// already capture.
func (s *Server) handleFeedback(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.methodNotAllowed(w, r, http.MethodPost)
		return
	}
	var req feedbackRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if len(req.Transactions) == 0 {
		s.writeError(w, r, http.StatusBadRequest, CodeBadRequest, "no transactions")
		return
	}
	if len(req.Transactions) > s.cfg.MaxBatch {
		s.writeError(w, r, http.StatusRequestEntityTooLarge, CodePayloadTooLarge, "batch of %d exceeds max %d", len(req.Transactions), s.cfg.MaxBatch)
		return
	}
	// Validate the whole batch before touching server state: feedback is
	// all-or-nothing.
	batch, labels, err := s.buildRelation(req.Transactions, true)
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, CodeBadRequest, "%v", err)
		return
	}
	if !s.lockCommit(w, r, "feedback", false) {
		return
	}
	base := s.feedback.Len()
	if err := s.commit(feedbackRecord(batch)); err != nil {
		s.mu.Unlock()
		s.writeError(w, r, http.StatusInternalServerError, CodeInternal, "persisting feedback: %v", err)
		return
	}
	st := s.state.Load()
	cache := s.captureLocked(st)
	resp := feedbackResponse{
		RequestID: requestMeta(r).id,
		Version:   st.version,
		Added:     batch.Len(),
		Total:     s.feedback.Len(),
		Captured:  make([]bool, batch.Len()),
	}
	capturing := make([][]int, batch.Len())
	for i := range resp.Captured {
		resp.Captured[i] = cache.Captured(base + i)
		capturing[i] = cache.CapturingRulesAt(base + i)
	}
	s.mu.Unlock()
	// Join the labels against the capturing rules: the per-rule FP/TP
	// evidence behind GET /v1/rules/health and the per-rule feedback series.
	// The join books into the epoch of the st the captures were computed
	// under, even if a publish has since replaced it.
	for i, lab := range labels {
		st.health.RecordFeedback(lab == relation.Fraud, lab == relation.Legitimate, capturing[i])
		switch lab {
		case relation.Fraud:
			s.mFeedbackFraud.Inc()
		case relation.Legitimate:
			s.mFeedbackLegit.Inc()
		default:
			s.mFeedbackUnlabeled.Inc()
		}
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// lockCommit is the commit guard of every mutating handler: it takes s.mu
// under the request context — or, with held set, re-checks the request for a
// caller that already holds s.mu (refine, after its session) — and reports
// whether the request may still commit, with s.mu held. If the context ended
// first — the deadline passed while the request queued for the lock or
// worked, or the client hung up — it releases s.mu if it took it, logs the
// discarded mutation and answers 503 "timeout", and the caller returns:
// state never changes behind that answer (a client retry would apply it
// twice). A request that may commit gets timeoutReplyGrace past its deadline
// to write the answer.
func (s *Server) lockCommit(w http.ResponseWriter, r *http.Request, what string, held bool) bool {
	ctx := r.Context()
	locked := !held && s.mu.lockCtx(ctx) == nil
	err := ctx.Err()
	if err == nil {
		if deadline, ok := ctx.Deadline(); ok {
			http.NewResponseController(w).SetWriteDeadline(deadline.Add(timeoutReplyGrace)) //nolint:errcheck // see writeTimeout
		}
		return true
	}
	if locked {
		s.mu.Unlock()
	}
	s.log.Warn(what+" discarded: the request ended before it could commit",
		"request_id", requestMeta(r).id, "version", s.state.Load().version, "err", err)
	s.writeTimeout(w, r, "committing the "+what)
	return false
}

// handleRefine runs a refinement session over the accumulated feedback and
// atomically publishes the refined rules.
func (s *Server) handleRefine(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.methodNotAllowed(w, r, http.MethodPost)
		return
	}
	var req refineRequest
	if r.ContentLength != 0 {
		if !s.decodeJSON(w, r, &req) {
			return
		}
	}
	if !s.lockCommit(w, r, "refinement", false) {
		return
	}
	defer s.mu.Unlock()
	if s.feedback.Len() == 0 {
		s.writeError(w, r, http.StatusConflict, CodeConflict, "no feedback ingested yet")
		return
	}
	old := s.state.Load()
	opts := s.cfg.Refine
	if req.MaxRounds > 0 {
		opts.MaxRounds = req.MaxRounds
	}
	meta := requestMeta(r)
	// The session's spans nest under this request's span, so GET /v1/trace
	// shows the whole refinement — rounds, expert queries, capture rebinds —
	// attributed to the request id echoed in the response.
	opts.Tracer = s.tracer
	opts.TraceParent = meta.span
	// The session stops at its next expert query once the deadline passes;
	// the guard below then discards it.
	sess := core.NewSession(old.set, s.cfg.Expert, opts)
	stats := sess.RefineContext(r.Context(), s.feedback)
	hits, rebinds, _ := sess.CaptureStats()
	s.refineHits.Add(hits)
	s.refineMisses.Add(rebinds)
	if !s.lockCommit(w, r, "refinement", true) {
		return
	}
	comment := req.Comment
	if comment == "" {
		comment = fmt.Sprintf("POST /v1/refine over %d feedback transactions", s.feedback.Len())
	}
	st, err := s.publishLocked(sess.Rules().Clone(), sess.Log().All(), comment)
	if err != nil {
		s.writeError(w, r, http.StatusInternalServerError, CodeInternal, "persisting refined rules: %v", err)
		return
	}
	s.mRefines.Inc()
	s.log.Info("refinement complete", "request_id", meta.id,
		"old_version", old.version, "version", st.version,
		"rounds", stats.Round, "modifications", stats.Modifications,
		"fraud_captured", stats.FraudCaptured, "fraud_total", stats.FraudTotal)
	s.writeJSON(w, http.StatusOK, refineResponse{
		RequestID:         meta.id,
		OldVersion:        old.version,
		Version:           st.version,
		Rules:             st.set.Len(),
		Modifications:     stats.Modifications,
		FraudTotal:        stats.FraudTotal,
		FraudCaptured:     stats.FraudCaptured,
		LegitTotal:        stats.LegitTotal,
		LegitCaptured:     stats.LegitCaptured,
		UnlabeledCaptured: stats.UnlabeledCaptured,
	})
}

// handleStats reports the published rules' performance over the feedback
// relation, read off the incremental capture cache.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.methodNotAllowed(w, r, http.MethodGet)
		return
	}
	if s.mu.lockCtx(r.Context()) != nil {
		s.writeError(w, r, http.StatusServiceUnavailable, CodeUnavailable, "canceled while queued for the control plane")
		return
	}
	defer s.mu.Unlock()
	st := s.state.Load()
	resp := statsResponse{RequestID: requestMeta(r).id, Version: st.version, Rules: st.set.Len(), Feedback: s.feedback.Len()}
	if s.feedback.Len() > 0 {
		cache := s.captureLocked(st)
		union := cache.Union()
		for i := 0; i < s.feedback.Len(); i++ {
			switch s.feedback.Label(i) {
			case relation.Fraud:
				resp.Fraud++
				if union.Has(i) {
					resp.FraudCaptured++
				}
			case relation.Legitimate:
				resp.Legit++
				if union.Has(i) {
					resp.LegitCaptured++
				}
			default:
				resp.Unlabeled++
			}
		}
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// handleRuleHealth serves the per-rule health snapshot: fire counts and
// shares, feedback-derived FP/TP estimates, EWMA fire-rate drift against the
// post-publish baseline, and staleness. The ETag is the rule-set version the
// snapshot accounts for — identical to GET /v1/rules' ETag for the same
// version, so clients can join health against the rule texts they already
// hold (and detect a publish race with If-None-Match).
func (s *Server) handleRuleHealth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.methodNotAllowed(w, r, http.MethodGet)
		return
	}
	meta := requestMeta(r)
	sp := meta.span.Child("rulestats.snapshot")
	snap := s.ruleHealth()
	sp.Int("rules", int64(len(snap.Rules))).Int("version", int64(snap.Version))
	sp.End()
	etag := versionETag(snap.Version)
	w.Header().Set("ETag", etag)
	if r.Header.Get("If-None-Match") == etag {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	s.writeJSON(w, http.StatusOK, ruleHealthResponse{RequestID: meta.id, Snapshot: snap})
}

// handleAudit serves the sampled decision audit ring, newest first.
// ?n= bounds the returned entries (default 100).
func (s *Server) handleAudit(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.methodNotAllowed(w, r, http.MethodGet)
		return
	}
	n := 100
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 1 {
			s.writeError(w, r, http.StatusBadRequest, CodeBadRequest, "bad n %q (want a positive integer)", q)
			return
		}
		n = v
	}
	entries := s.stats.AuditEntries(n)
	if entries == nil {
		entries = []rulestats.AuditEntry{}
	}
	s.writeJSON(w, http.StatusOK, auditResponse{
		RequestID: requestMeta(r).id,
		Version:   s.state.Load().version,
		Retained:  s.stats.AuditLen(),
		Count:     len(entries),
		Entries:   entries,
	})
}

// ruleHealth is the published version's health snapshot.
func (s *Server) ruleHealth() rulestats.Snapshot { return s.state.Load().health.Snapshot() }

// handleSchema serves the schema JSON so clients (cmd/loadgen) can
// self-configure.
func (s *Server) handleSchema(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.methodNotAllowed(w, r, http.MethodGet)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := s.schema.WriteJSON(w); err != nil {
		s.writeError(w, r, http.StatusInternalServerError, CodeInternal, "%v", err)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain")
	fmt.Fprintln(w, "ok")
}

// handleReadyz reports readiness. New replays the snapshot and WAL before
// the server can even be constructed, so a reachable leader is a restored
// leader and its readiness only flips while draining. A follower is
// additionally not ready until replay has caught up to the leader's WAL
// position as of the first connect — load balancers never route reads to a
// node still serving a stale rule version.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		s.writeErrorID(w, "", http.StatusServiceUnavailable, CodeNotReady, "draining")
		return
	}
	if f := s.follower; f != nil && !f.ready() {
		s.writeErrorID(w, "", http.StatusServiceUnavailable, CodeNotReady,
			"follower catching up: applied seq %d of %d", f.applied.Load(), f.target.Load())
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}
