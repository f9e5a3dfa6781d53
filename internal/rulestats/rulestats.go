// Package rulestats tracks per-rule health for the serving layer: which
// rules fire on live traffic, how often, how recently, how their fire rate
// drifts away from the rate observed right after they were published, and —
// by joining analyst feedback labels against recorded fire attributions —
// rough true-positive / false-positive estimates per rule. ARMS (Aparício et
// al., 2020) argues production fraud-rule stacks live or die by exactly this
// per-rule monitoring: a rule that stopped firing is dead weight, a rule
// whose fire rate doubled is drifting with the traffic, and a rule that only
// fires on legitimate transactions is burning analyst review budget.
//
// Version model: every published rule-set version gets its own Epoch
// (Tracker.NewEpoch), which the caller keeps beside the rules it accounts
// for. The serving layer hangs it off the same immutable per-version state
// a request loads once and evaluates with, and records the request's fires
// and feedback into that state's epoch. Counters therefore can never be
// attributed to the wrong version: there is no second "current version"
// pointer that a publish could swap between evaluating and recording.
//
// Concurrency model: the scoring hot path only touches per-rule atomics
// (fire counters, last-fired timestamps) and the epoch's transaction
// counter — no locks, no allocation. EWMA drift state is folded in lazily,
// under a small per-epoch mutex, only when a Snapshot is taken (the health
// endpoint or a metrics scrape) — the hot path never pays for it. The
// decision audit ring is bounded and mutex-guarded; only sampled decisions
// reach it.
package rulestats

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Config parameterizes a Tracker. The zero value is valid: every field has
// a serving-grade default.
type Config struct {
	// HalfLife is the half-life of the fire-rate EWMA behind the drift
	// score: observations this old carry half the weight of fresh ones.
	// 0 means DefaultHalfLife.
	HalfLife time.Duration
	// BaselineMinTx is the number of scored transactions after which the
	// epoch's baseline fire shares freeze (the denominator of the drift
	// score). 0 means DefaultBaselineMinTx.
	BaselineMinTx uint64
	// AuditCapacity bounds the decision audit ring. 0 means
	// DefaultAuditCapacity; negative disables the ring.
	AuditCapacity int
	// SampleEvery admits every n-th scored transaction into the audit ring
	// (deterministic systematic sampling — cheap and uniform under steady
	// load). 0 means DefaultSampleEvery; negative disables sampling.
	SampleEvery int
	// Now injects a clock for tests; nil means time.Now.
	Now func() time.Time
}

// Defaults for the zero Config values.
const (
	DefaultHalfLife      = time.Minute
	DefaultBaselineMinTx = 256
	DefaultAuditCapacity = 1024
	DefaultSampleEvery   = 100
)

func (cfg Config) withDefaults() Config {
	if cfg.HalfLife <= 0 {
		cfg.HalfLife = DefaultHalfLife
	}
	if cfg.BaselineMinTx == 0 {
		cfg.BaselineMinTx = DefaultBaselineMinTx
	}
	if cfg.AuditCapacity == 0 {
		cfg.AuditCapacity = DefaultAuditCapacity
	}
	if cfg.SampleEvery == 0 {
		cfg.SampleEvery = DefaultSampleEvery
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return cfg
}

// ruleCell is the hot-path accounting of one rule within one epoch. All
// fields are atomics: scoring workers update them concurrently.
type ruleCell struct {
	fires     atomic.Uint64 // first-match fires on scored traffic
	tp        atomic.Uint64 // fired on feedback labeled fraud
	fp        atomic.Uint64 // fired on feedback labeled legitimate
	lastFired atomic.Int64  // unix nanos; 0 = never in this epoch
}

// Epoch is the rule-health accounting of one published rule-set version:
// fire counts, FP/TP estimates, baselines and EWMAs, all starting from zero
// when the version is published, so health is always relative to the rules
// actually serving. It only ever counts what it is handed, so a caller that
// records into the epoch of the version that scored attributes every count
// to exactly that version.
type Epoch struct {
	cfg     *Config
	version int
	created time.Time
	cells   []ruleCell
	totalTx atomic.Uint64 // transactions scored in this epoch

	// Drift state, folded in lazily under mu by Snapshot: a frozen baseline
	// fire share per rule plus a time-decayed EWMA of the recent share.
	mu           sync.Mutex
	baseline     []float64 // per-rule fire share; nil until frozen
	baselineTx   uint64
	ewma         []float64 // per-rule EWMA fire share
	ewmaOK       []bool    // whether ewma[i] has been seeded
	lastFoldTime time.Time
	lastFires    []uint64 // fires at the last fold
	lastTotal    uint64   // totalTx at the last fold
}

// Tracker is the serving daemon's rule-health accountant. Create with New,
// take a NewEpoch for every published version, and read the sampled
// decisions with AuditEntries.
type Tracker struct {
	cfg Config

	// Audit ring: bounded, sampled, spans versions (entries carry the
	// version they were scored under — it is an audit log, not a gauge).
	auditMu  sync.Mutex
	audit    []AuditEntry
	auditPos int
	auditLen int
	auditSeq atomic.Uint64
	scoreSeq atomic.Uint64 // systematic-sampling counter
}

// New returns a Tracker with an empty audit ring.
func New(cfg Config) *Tracker {
	t := &Tracker{cfg: cfg.withDefaults()}
	if t.cfg.AuditCapacity > 0 {
		t.audit = make([]AuditEntry, t.cfg.AuditCapacity)
	}
	return t
}

// NewEpoch returns a fresh accounting epoch for a newly published rule-set
// version with ruleCount rules. The audit ring is not touched — it is a log
// of past decisions, each tagged with its version.
func (t *Tracker) NewEpoch(version, ruleCount int) *Epoch {
	return &Epoch{
		cfg:          &t.cfg,
		version:      version,
		created:      t.cfg.Now(),
		cells:        make([]ruleCell, ruleCount),
		lastFires:    make([]uint64, ruleCount),
		ewma:         make([]float64, ruleCount),
		ewmaOK:       make([]bool, ruleCount),
		lastFoldTime: t.cfg.Now(),
	}
}

// RecordFires ingests one batch of scored transactions, of which counts[i]
// first matched rule i (counts is nil when none fired; entries past the
// epoch's rules are ignored). Safe for concurrent use; the cost is one
// atomic add per fired rule plus one per batch.
func (ep *Epoch) RecordFires(scored int, counts []uint64) {
	ep.totalTx.Add(uint64(scored))
	now := ep.cfg.Now().UnixNano()
	for ri, n := range counts {
		if n == 0 || ri >= len(ep.cells) {
			continue
		}
		c := &ep.cells[ri]
		c.fires.Add(n)
		c.lastFired.Store(now)
	}
}

// RecordFeedback joins one labeled feedback transaction against the rules
// that capture it: a fraud label counts a true positive for every capturing
// rule, a legitimate label a false positive. Unlabeled feedback (fraud
// unknown) is ignored.
func (ep *Epoch) RecordFeedback(fraud, legit bool, capturing []int) {
	if !fraud && !legit {
		return
	}
	for _, ri := range capturing {
		if ri < 0 || ri >= len(ep.cells) {
			continue
		}
		if fraud {
			ep.cells[ri].tp.Add(1)
		} else {
			ep.cells[ri].fp.Add(1)
		}
	}
}

// RuleHealth is one rule's health snapshot within one epoch.
type RuleHealth struct {
	// Rule is the rule's index in the published set.
	Rule int `json:"rule"`
	// Fires is the number of scored transactions whose first matching rule
	// this was, since the version was published.
	Fires uint64 `json:"fires"`
	// Share is Fires / total scored transactions (0 with no traffic).
	Share float64 `json:"share"`
	// TP and FP are the feedback-derived estimates: capturing rules of
	// fraud-labeled (TP) and legit-labeled (FP) feedback transactions.
	TP uint64 `json:"tp"`
	FP uint64 `json:"fp"`
	// Precision is TP / (TP+FP), or -1 with no labeled evidence.
	Precision float64 `json:"precision"`
	// LastFiredAgo is the seconds since the rule last fired, or -1 when it
	// has not fired in this epoch (the staleness signal).
	LastFiredAgo float64 `json:"last_fired_ago_seconds"`
	// BaselineShare is the fire share frozen after Config.BaselineMinTx
	// scored transactions, or -1 while the baseline is still forming.
	BaselineShare float64 `json:"baseline_share"`
	// EWMAShare is the time-decayed recent fire share (half-life
	// Config.HalfLife), or -1 before any fold.
	EWMAShare float64 `json:"ewma_share"`
	// Drift is |EWMAShare − BaselineShare| / max(BaselineShare, 1/BaselineMinTx):
	// 0 means the rule fires like it did at publish; 1 means the rate moved
	// by its whole baseline. -1 until both the baseline and the EWMA exist.
	Drift float64 `json:"drift"`
}

// Snapshot is one epoch's full health readout (and therefore one published
// version's).
type Snapshot struct {
	Version  int          `json:"version"`
	TotalTx  uint64       `json:"total_scored"`
	AgeSecs  float64      `json:"epoch_age_seconds"`
	Baseline bool         `json:"baseline_frozen"`
	Rules    []RuleHealth `json:"rules"`
}

// Snapshot folds the pending fire counts into the drift EWMAs (freezing the
// baseline once enough traffic has been seen) and returns the per-rule
// health. It locks only the epoch's fold mutex — scoring is never blocked.
func (ep *Epoch) Snapshot() Snapshot {
	now := ep.cfg.Now()
	total := ep.totalTx.Load()
	fires := make([]uint64, len(ep.cells))
	for i := range ep.cells {
		fires[i] = ep.cells[i].fires.Load()
	}

	ep.mu.Lock()
	// Freeze the baseline the first time enough traffic has accumulated.
	if ep.baseline == nil && total >= ep.cfg.BaselineMinTx {
		ep.baseline = make([]float64, len(fires))
		for i, f := range fires {
			ep.baseline[i] = float64(f) / float64(total)
		}
		ep.baselineTx = total
	}
	// Fold the window since the last snapshot into the EWMA. The decay
	// factor is computed from wall-clock elapsed against the half-life, so
	// the EWMA is poll-frequency independent.
	if dTx := total - ep.lastTotal; dTx > 0 {
		dt := now.Sub(ep.lastFoldTime)
		if dt <= 0 {
			dt = time.Nanosecond
		}
		alpha := 1 - math.Exp2(-float64(dt)/float64(ep.cfg.HalfLife))
		for i := range fires {
			share := float64(fires[i]-ep.lastFires[i]) / float64(dTx)
			if !ep.ewmaOK[i] {
				ep.ewma[i] = share
				ep.ewmaOK[i] = true
				continue
			}
			ep.ewma[i] += alpha * (share - ep.ewma[i])
		}
		copy(ep.lastFires, fires)
		ep.lastTotal = total
		ep.lastFoldTime = now
	}
	baseline := ep.baseline
	ewma := append([]float64(nil), ep.ewma...)
	ewmaOK := append([]bool(nil), ep.ewmaOK...)
	ep.mu.Unlock()

	out := Snapshot{
		Version:  ep.version,
		TotalTx:  total,
		AgeSecs:  now.Sub(ep.created).Seconds(),
		Baseline: baseline != nil,
		Rules:    make([]RuleHealth, len(fires)),
	}
	floor := 1 / float64(ep.cfg.BaselineMinTx)
	for i := range fires {
		h := RuleHealth{
			Rule:          i,
			Fires:         fires[i],
			TP:            ep.cells[i].tp.Load(),
			FP:            ep.cells[i].fp.Load(),
			Precision:     -1,
			LastFiredAgo:  -1,
			BaselineShare: -1,
			EWMAShare:     -1,
			Drift:         -1,
		}
		if total > 0 {
			h.Share = float64(fires[i]) / float64(total)
		}
		if n := h.TP + h.FP; n > 0 {
			h.Precision = float64(h.TP) / float64(n)
		}
		if last := ep.cells[i].lastFired.Load(); last > 0 {
			h.LastFiredAgo = now.Sub(time.Unix(0, last)).Seconds()
			if h.LastFiredAgo < 0 {
				h.LastFiredAgo = 0
			}
		}
		if ewmaOK[i] {
			h.EWMAShare = ewma[i]
		}
		if baseline != nil {
			h.BaselineShare = baseline[i]
			if ewmaOK[i] {
				denom := baseline[i]
				if denom < floor {
					denom = floor
				}
				h.Drift = math.Abs(ewma[i]-baseline[i]) / denom
			}
		}
		out.Rules[i] = h
	}
	return out
}

// AuditEntry is one sampled scoring decision retained in the bounded audit
// ring: enough to reconstruct "what did we decide, under which rules, and
// why" without retaining the full traffic stream.
type AuditEntry struct {
	// Seq is a monotonically increasing id across the daemon's lifetime.
	Seq uint64 `json:"seq"`
	// Time is the scoring wall-clock time.
	Time time.Time `json:"time"`
	// RequestID is the serving request the decision belonged to.
	RequestID string `json:"request_id,omitempty"`
	// Version is the rule-set version that made the decision.
	Version int `json:"version"`
	// Rule is the first matching rule index, or -1 when nothing matched.
	Rule int `json:"rule"`
	// Flagged reports the decision.
	Flagged bool `json:"flagged"`
	// Score is the transaction's risk score.
	Score int16 `json:"score"`
	// Attrs is the transaction rendered attribute-by-attribute in the
	// schema's textual form.
	Attrs map[string]string `json:"attrs,omitempty"`
}

// ShouldSample reports whether the next scored transaction should be
// recorded into the audit ring (systematic 1-in-SampleEvery sampling; one
// atomic add per call).
func (t *Tracker) ShouldSample() bool {
	if t.cfg.SampleEvery < 0 || t.cfg.AuditCapacity < 0 {
		return false
	}
	return t.scoreSeq.Add(1)%uint64(t.cfg.SampleEvery) == 0
}

// AddAudit appends one decision to the audit ring, stamping its sequence
// number and, when the caller left it zero, its time.
func (t *Tracker) AddAudit(e AuditEntry) {
	if t.audit == nil {
		return
	}
	e.Seq = t.auditSeq.Add(1)
	if e.Time.IsZero() {
		e.Time = t.cfg.Now()
	}
	t.auditMu.Lock()
	t.audit[t.auditPos] = e
	t.auditPos = (t.auditPos + 1) % len(t.audit)
	if t.auditLen < len(t.audit) {
		t.auditLen++
	}
	t.auditMu.Unlock()
}

// AuditEntries returns up to n of the most recent audit entries, newest
// first (n <= 0 means all retained entries).
func (t *Tracker) AuditEntries(n int) []AuditEntry {
	t.auditMu.Lock()
	defer t.auditMu.Unlock()
	if n <= 0 || n > t.auditLen {
		n = t.auditLen
	}
	out := make([]AuditEntry, 0, n)
	for i := 0; i < n; i++ {
		pos := (t.auditPos - 1 - i + 2*len(t.audit)) % len(t.audit)
		out = append(out, t.audit[pos])
	}
	return out
}

// AuditLen returns the number of retained audit entries.
func (t *Tracker) AuditLen() int {
	t.auditMu.Lock()
	defer t.auditMu.Unlock()
	return t.auditLen
}
