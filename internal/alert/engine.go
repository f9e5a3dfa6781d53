package alert

import (
	"context"
	"io"
	"log/slog"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rulestats"
	"repro/internal/telemetry"
)

// Sources are the signal inputs an engine samples. Metrics is required;
// RuleStats is optional (the max(rule_*) signals report "no data" without
// it). Replication signals need no hook of their own: a follower registers
// rudolf_replica_lag_records and rudolf_replica_reconnects_total in the
// same registry, and on a leader their absence is ordinary no-data.
type Sources struct {
	// Metrics is the live telemetry registry the value/rate/pNN functions
	// read (via Registry.Value and Registry.FindHistogram — never by
	// rendering and re-parsing the exposition text).
	Metrics *telemetry.Registry
	// RuleStats snapshots the per-rule health epoch for the max(rule_*)
	// signals.
	RuleStats func() rulestats.Snapshot
}

// Config parameterizes an Engine.
type Config struct {
	// Rules is the initial alert rule set (swap later with SetRules).
	Rules []Rule
	// Interval is the evaluation period used by Run. 0 means
	// DefaultInterval.
	Interval time.Duration
	// HistoryCap bounds the transition-event history. 0 means
	// DefaultHistoryCap.
	HistoryCap int
	// Webhook configures the optional sink; nil disables it.
	Webhook *WebhookConfig
	// Sources are the signal inputs.
	Sources Sources
	// Logger receives transition logs; nil discards.
	Logger *slog.Logger
	// Now is the clock (tests inject a fake one); nil means time.Now.
	Now func() time.Time
}

// Defaults for the zero Config values.
const (
	DefaultInterval   = 15 * time.Second
	DefaultHistoryCap = 256
)

// ruleRuntime is one rule's mutable lifecycle state.
type ruleRuntime struct {
	state     State
	since     time.Time // when the current state was entered
	firedAt   time.Time // when the alert last entered firing
	lastValue float64
	hasData   bool
	gPending  *telemetry.Gauge // ALERTS{...,state="pending"}; nil without metrics
	gFiring   *telemetry.Gauge
}

// Snapshot is the engine's full readout for GET /v1/alerts and
// /v1/debug/state.
type Snapshot struct {
	// ConfigVersion counts rule-set installs (1 = the boot-time set);
	// Generation counts state transitions. Together they version the
	// document: the /v1/alerts ETag is "<ConfigVersion>-<Generation>".
	ConfigVersion int           `json:"config_version"`
	Generation    uint64        `json:"generation"`
	Interval      time.Duration `json:"interval_ns"`
	// LastEval is the zero time before the first evaluation.
	LastEval time.Time `json:"last_eval,omitzero"`
	Firing   int       `json:"firing"`
	Pending  int       `json:"pending"`
	// Rules holds every rule's current status, in rule order.
	Rules []RuleStatus `json:"rules"`
	// Recent holds the retained transition events, newest first.
	Recent []Event `json:"recent"`
	// Webhook is nil when no sink is configured.
	Webhook *WebhookStatus `json:"webhook,omitempty"`
}

// Engine evaluates alert rules and owns their lifecycle state. All methods
// are safe for concurrent use; evaluation and snapshotting share one mutex
// that no scoring path ever touches.
type Engine struct {
	sources  Sources
	log      *slog.Logger
	now      func() time.Time
	interval time.Duration

	mu         sync.Mutex
	rules      []Rule
	runtimes   []ruleRuntime
	cfgVersion int
	generation uint64
	lastEval   time.Time
	history    []Event // ring, wraps at historyCap
	histNext   int
	historyCap int
	// prevHist / prevRate hold the previous evaluation's per-signal
	// snapshots for the delta-window quantile and rate functions.
	prevHist map[string]histPrev
	prevRate map[string]ratePrev
	// gauges caches the ALERTS series ever created, so removed rules can be
	// zeroed instead of lingering at a stale 1.
	gauges map[gaugeKey]*telemetry.Gauge

	firing atomic.Int64 // mirrored out for lock-free /v1/status reads

	webhook *webhookSink

	mEvals       *telemetry.Counter
	mToPending   *telemetry.Counter
	mToFiring    *telemetry.Counter
	mToResolved  *telemetry.Counter
	mFiringGauge *telemetry.Gauge
}

type histPrev struct {
	cum   []uint64
	total uint64
	at    time.Time
}

type ratePrev struct {
	v  float64
	at time.Time
}

type gaugeKey struct {
	name  string
	sev   Severity
	state State
}

// NewEngine builds an engine and installs cfg.Rules as config version 1.
// It does not start evaluating — call Run (or Evaluate for a single pass).
func NewEngine(cfg Config) *Engine {
	e := &Engine{
		sources:    cfg.Sources,
		log:        cfg.Logger,
		now:        cfg.Now,
		interval:   cfg.Interval,
		historyCap: cfg.HistoryCap,
		prevHist:   make(map[string]histPrev),
		prevRate:   make(map[string]ratePrev),
		gauges:     make(map[gaugeKey]*telemetry.Gauge),
	}
	if e.now == nil {
		e.now = time.Now
	}
	if e.log == nil {
		e.log = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(math.MaxInt)}))
	}
	if e.interval <= 0 {
		e.interval = DefaultInterval
	}
	if e.historyCap <= 0 {
		e.historyCap = DefaultHistoryCap
	}
	if r := e.sources.Metrics; r != nil {
		r.Help("ALERTS", "Alert lifecycle states: 1 while the named alert is in the labeled state (Prometheus ALERTS convention).")
		r.Help("rudolf_alert_evals_total", "Alert evaluation passes completed.")
		r.Help("rudolf_alert_transitions_total", "Alert state transitions, by target state.")
		r.Help("rudolf_alerts_firing", "Alerts currently firing.")
		e.mEvals = r.Counter("rudolf_alert_evals_total")
		e.mToPending = r.Counter(`rudolf_alert_transitions_total{to="pending"}`)
		e.mToFiring = r.Counter(`rudolf_alert_transitions_total{to="firing"}`)
		e.mToResolved = r.Counter(`rudolf_alert_transitions_total{to="resolved"}`)
		e.mFiringGauge = r.Gauge("rudolf_alerts_firing")
	}
	if cfg.Webhook != nil && cfg.Webhook.URL != "" {
		e.webhook = newWebhookSink(*cfg.Webhook, e.sources.Metrics, e.log)
	}
	e.mu.Lock()
	e.installLocked(cfg.Rules)
	e.mu.Unlock()
	return e
}

// stateGauge returns (creating on first use) the ALERTS series for one
// rule × state.
func (e *Engine) stateGauge(name string, sev Severity, st State) *telemetry.Gauge {
	if e.sources.Metrics == nil {
		return nil
	}
	k := gaugeKey{name, sev, st}
	if g, ok := e.gauges[k]; ok {
		return g
	}
	series := `ALERTS{name="` + telemetry.EscapeLabel(name) +
		`",severity="` + telemetry.EscapeLabel(string(sev)) +
		`",state="` + string(st) + `"}`
	g := e.sources.Metrics.Gauge(series)
	e.gauges[k] = g
	return g
}

// installLocked replaces the rule set: fresh runtimes (every alert restarts
// inactive — lifecycle state is only meaningful against the rules that
// defined it), zeroed gauges for rules that vanished, a config-version
// bump. Callers hold e.mu.
func (e *Engine) installLocked(rules []Rule) {
	for _, g := range e.gauges {
		g.Set(0)
	}
	e.rules = append([]Rule(nil), rules...)
	e.runtimes = make([]ruleRuntime, len(e.rules))
	for i := range e.rules {
		rt := &e.runtimes[i]
		rt.state = StateInactive
		rt.gPending = e.stateGauge(e.rules[i].Name, e.rules[i].Severity, StatePending)
		rt.gFiring = e.stateGauge(e.rules[i].Name, e.rules[i].Severity, StateFiring)
	}
	e.cfgVersion++
	e.generation++
	e.firing.Store(0)
	if e.mFiringGauge != nil {
		e.mFiringGauge.Set(0)
	}
}

// SetRules atomically replaces the alert rule set and returns the new
// config version. Current lifecycle state is discarded — the new rules
// start inactive and re-form their own pending windows.
func (e *Engine) SetRules(rules []Rule) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.installLocked(rules)
	e.log.Info("alert rules installed", "rules", len(rules), "config_version", e.cfgVersion)
	return e.cfgVersion
}

// FiringCount returns the number of currently firing alerts without taking
// the engine lock (for the /v1/status hot-ish path).
func (e *Engine) FiringCount() int { return int(e.firing.Load()) }

// Run evaluates on the configured interval until ctx is done. It blocks;
// run it in its own goroutine.
func (e *Engine) Run(ctx context.Context) {
	t := time.NewTicker(e.interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			e.Evaluate()
		}
	}
}

// Close stops the webhook sink (if any), flushing nothing: undelivered
// events are dropped and counted. Safe to call more than once.
func (e *Engine) Close() {
	if e.webhook != nil {
		e.webhook.close()
	}
}

// Evaluate runs one evaluation pass over every rule: sample each distinct
// expression, apply the comparator, advance the state machine, record
// transitions, update the ALERTS gauges and feed the webhook sink.
func (e *Engine) Evaluate() {
	now := e.now()
	e.mu.Lock()
	defer e.mu.Unlock()

	// Sample every distinct expression input once per pass: two rules over
	// the same histogram must see the same delta window, and the
	// prev-snapshot bookkeeping must advance exactly once per signal.
	type sampleResult struct {
		v  float64
		ok bool
	}
	samples := make(map[string]sampleResult, len(e.rules))
	var rsnap *rulestats.Snapshot
	sampleOf := func(x Expr) (float64, bool) {
		key := x.Fn + "(" + x.Signal + ")"
		if s, done := samples[key]; done {
			return s.v, s.ok
		}
		v, ok := e.sampleLocked(x, now, &rsnap)
		samples[key] = sampleResult{v, ok}
		return v, ok
	}

	firing := 0
	for i := range e.rules {
		rule := &e.rules[i]
		rt := &e.runtimes[i]
		v, ok := sampleOf(rule.Expr)
		rt.lastValue, rt.hasData = v, ok
		breach := ok && rule.Expr.compare(v)
		switch {
		case breach:
			if rt.state == StateInactive {
				rt.state, rt.since = StatePending, now
				rt.gPending.Set(1)
				e.generation++
				if e.mToPending != nil {
					e.mToPending.Inc()
				}
			}
			if rt.state == StatePending && now.Sub(rt.since) >= rule.For {
				rt.state, rt.since, rt.firedAt = StateFiring, now, now
				rt.gPending.Set(0)
				rt.gFiring.Set(1)
				e.generation++
				if e.mToFiring != nil {
					e.mToFiring.Inc()
				}
				e.recordLocked(Event{
					Name: rule.Name, Severity: rule.Severity, State: StateFiring,
					Expr: rule.Expr.Raw, Value: v, At: now,
				})
				e.log.Warn("alert firing", "alert", rule.Name, "severity", rule.Severity,
					"expr", rule.Expr.Raw, "value", v)
			}
		case rt.state == StatePending:
			// One false sample resets the hysteresis window entirely.
			rt.state, rt.since = StateInactive, now
			rt.gPending.Set(0)
			e.generation++
		case rt.state == StateFiring:
			rt.state, rt.since = StateInactive, now
			rt.gFiring.Set(0)
			e.generation++
			if e.mToResolved != nil {
				e.mToResolved.Inc()
			}
			e.recordLocked(Event{
				Name: rule.Name, Severity: rule.Severity, State: StateResolved,
				Expr: rule.Expr.Raw, Value: v, At: now, FiredAt: rt.firedAt,
			})
			e.log.Info("alert resolved", "alert", rule.Name,
				"fired_for", now.Sub(rt.firedAt).String())
		}
		if rt.state == StateFiring {
			firing++
		}
	}
	e.firing.Store(int64(firing))
	if e.mFiringGauge != nil {
		e.mFiringGauge.Set(int64(firing))
	}
	e.lastEval = now
	if e.mEvals != nil {
		e.mEvals.Inc()
	}
}

// recordLocked appends a transition event to the bounded history ring and
// the webhook queue. Callers hold e.mu.
func (e *Engine) recordLocked(ev Event) {
	if len(e.history) < e.historyCap {
		e.history = append(e.history, ev)
	} else {
		e.history[e.histNext] = ev
		e.histNext = (e.histNext + 1) % e.historyCap
	}
	if e.webhook != nil {
		e.webhook.enqueue(ev)
	}
}

// sampleLocked evaluates one expression input against the sources. The
// bool result distinguishes a real sample from "no data". Callers hold
// e.mu; rsnap caches the rulestats snapshot across one pass.
func (e *Engine) sampleLocked(x Expr, now time.Time, rsnap **rulestats.Snapshot) (float64, bool) {
	switch x.Fn {
	case "max":
		if e.sources.RuleStats == nil {
			return 0, false
		}
		if *rsnap == nil {
			s := e.sources.RuleStats()
			*rsnap = &s
		}
		return maxRuleSignal(**rsnap, x.Signal)
	case "value":
		if e.sources.Metrics == nil {
			return 0, false
		}
		return e.sources.Metrics.Value(x.Signal)
	case "rate":
		return e.rateLocked(x.Signal, now)
	default: // pNN — ParseExpr admits nothing else
		return e.quantileLocked(x.Signal, quantileFns[x.Fn], now)
	}
}

// rateLocked computes the per-second increase of a counter (or a
// histogram's observation count) since the previous evaluation. The first
// sighting of a series, a zero-elapsed window and a counter reset are all
// no-data; the current value is remembered either way.
func (e *Engine) rateLocked(signal string, now time.Time) (float64, bool) {
	if e.sources.Metrics == nil {
		return 0, false
	}
	var cur float64
	if h, ok := e.sources.Metrics.FindHistogram(signal); ok {
		cur = float64(h.Count())
	} else if v, ok := e.sources.Metrics.Value(signal); ok {
		cur = v
	} else {
		return 0, false
	}
	prev, seen := e.prevRate[signal]
	e.prevRate[signal] = ratePrev{v: cur, at: now}
	if !seen || cur < prev.v || !now.After(prev.at) {
		return 0, false
	}
	return (cur - prev.v) / now.Sub(prev.at).Seconds(), true
}

// quantileLocked estimates a quantile over the histogram's observations
// since the previous evaluation — the inter-tick delta distribution. A
// lifetime-cumulative histogram would ratchet: once p99 breached it could
// never un-breach, so a fired alert could never resolve. An empty window
// (and the first sighting, and a reset) is no-data.
func (e *Engine) quantileLocked(signal string, q float64, now time.Time) (float64, bool) {
	if e.sources.Metrics == nil {
		return 0, false
	}
	h, ok := e.sources.Metrics.FindHistogram(signal)
	if !ok {
		return 0, false
	}
	uppers, cum, total := h.Buckets()
	prev, seen := e.prevHist[signal]
	e.prevHist[signal] = histPrev{cum: cum, total: total, at: now}
	if !seen || len(prev.cum) != len(cum) || total < prev.total {
		return 0, false
	}
	dTotal := total - prev.total
	if dTotal == 0 {
		return 0, false
	}
	dCum := make([]uint64, len(cum))
	for i := range cum {
		if cum[i] >= prev.cum[i] {
			dCum[i] = cum[i] - prev.cum[i]
		}
	}
	// Re-cumulate defensively: per-bucket deltas of a torn concurrent read
	// can be locally non-monotone; clamp so the quantile walk stays sane.
	for i := 1; i < len(dCum); i++ {
		if dCum[i] < dCum[i-1] {
			dCum[i] = dCum[i-1]
		}
	}
	return telemetry.QuantileFromBuckets(uppers, dCum, dTotal, q), true
}

// maxRuleSignal folds a rulestats snapshot into the max over one per-rule
// signal. No eligible rule means no data.
func maxRuleSignal(snap rulestats.Snapshot, signal string) (float64, bool) {
	best, any := 0.0, false
	for _, h := range snap.Rules {
		var v float64
		switch signal {
		case SignalRuleFPShare:
			if h.TP+h.FP < MinEvidence {
				continue
			}
			v = float64(h.FP) / float64(h.TP+h.FP)
		case SignalRuleDrift:
			if h.Drift < 0 {
				continue
			}
			v = h.Drift
		case SignalRuleStaleness:
			if h.LastFiredAgo < 0 {
				continue
			}
			v = h.LastFiredAgo
		default:
			return 0, false
		}
		if !any || v > best {
			best, any = v, true
		}
	}
	return best, any
}

// Snapshot returns the engine's full current readout.
func (e *Engine) Snapshot() Snapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	now := e.now()
	out := Snapshot{
		ConfigVersion: e.cfgVersion,
		Generation:    e.generation,
		Interval:      e.interval,
		LastEval:      e.lastEval,
		Rules:         make([]RuleStatus, len(e.rules)),
	}
	for i := range e.rules {
		rule, rt := &e.rules[i], &e.runtimes[i]
		st := RuleStatus{
			Name: rule.Name, Severity: rule.Severity, State: rt.state,
			Expr: rule.Expr.Raw, ForS: rule.For.Seconds(),
			Value: rt.lastValue, HasData: rt.hasData,
		}
		if rt.state != StateInactive {
			st.SinceS = now.Sub(rt.since).Seconds()
		}
		switch rt.state {
		case StateFiring:
			out.Firing++
		case StatePending:
			out.Pending++
		}
		out.Rules[i] = st
	}
	out.Recent = append([]Event(nil), e.history...)
	sortEventsNewestFirst(out.Recent)
	if e.webhook != nil {
		ws := e.webhook.status()
		out.Webhook = &ws
	}
	return out
}
