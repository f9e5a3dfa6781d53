package alert

import (
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rulestats"
	"repro/internal/telemetry"
)

// signal is a settable float series for the engine to sample: a read-time
// gauge over a value the test owns.
type signal struct{ bits atomic.Uint64 }

func (s *signal) Set(v float64) { s.bits.Store(math.Float64bits(v)) }

func newSignal(reg *telemetry.Registry, name string) *signal {
	s := &signal{}
	reg.Collect(map[string]string{name: "gauge"}, func(emit func(string, float64)) {
		emit(name, math.Float64frombits(s.bits.Load()))
	})
	return s
}

// fakeClock is a manually advanced clock for deterministic hysteresis
// tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestParseRule(t *testing.T) {
	t.Run("full header", func(t *testing.T) {
		r, err := ParseRule(`alert eval_p99 severity=page for=1m: p99(rudolf_stage_duration_seconds{stage="eval"}) > 5ms`)
		if err != nil {
			t.Fatal(err)
		}
		if r.Name != "eval_p99" || r.Severity != SeverityPage || r.For != time.Minute {
			t.Fatalf("header parsed as %+v", r)
		}
		if r.Expr.Fn != "p99" || r.Expr.Signal != `rudolf_stage_duration_seconds{stage="eval"}` ||
			r.Expr.Op != ">" || r.Expr.Threshold != 0.005 {
			t.Fatalf("expr parsed as %+v", r.Expr)
		}
	})
	t.Run("defaults", func(t *testing.T) {
		r, err := ParseRule(`alert lag: value(rudolf_replica_lag_records) >= 500`)
		if err != nil {
			t.Fatal(err)
		}
		if r.Severity != SeverityWarn || r.For != 0 || r.Expr.Threshold != 500 {
			t.Fatalf("defaults: %+v", r)
		}
	})
	for _, bad := range []string{
		`p99(x) > 5ms`,                             // no header
		`alert a severity=fatal: value(x) > 1`,     // bad severity
		`alert a for=-5s: value(x) > 1`,            // negative for
		`alert a wat=1: value(x) > 1`,              // unknown option
		`alert a value(x) > 1`,                     // missing colon
		`alert bad name: value(x) > 1`,             // space in name (parsed as option)
		`alert a: histogram_quantile(0.99, x) > 1`, // unknown fn
		`alert a: value(x) ~ 1`,                    // bad op
		`alert a: value(x) > fast`,                 // bad threshold
		`alert a: max(rudolf_score_tx_total) > 1`,  // max needs a rulestats signal
		`alert a: value() > 1`,                     // empty signal
		`alert a: value(x) > 1 2`,                  // trailing garbage
	} {
		if _, err := ParseRule(bad); err == nil {
			t.Errorf("ParseRule(%q) succeeded, want error", bad)
		}
	}
}

func TestParseRulesDocument(t *testing.T) {
	doc := `
# comment
alert a: value(x) > 1

alert b for=10s: rate(y_total) > 0.5
`
	rules, err := ParseRules(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 || rules[0].Name != "a" || rules[1].Name != "b" {
		t.Fatalf("parsed %+v", rules)
	}
	if _, err := ParseRules(strings.NewReader("alert a: value(x) > 1\nalert a: value(x) > 2")); err == nil {
		t.Error("duplicate names accepted")
	}
}

func TestDefaultRules(t *testing.T) {
	rules := DefaultRules()
	if len(rules) < 5 {
		t.Fatalf("DefaultRules() = %d rules, want the documented set", len(rules))
	}
	names := map[string]bool{}
	for _, r := range rules {
		names[r.Name] = true
	}
	for _, want := range []string{"slo_eval_p99", "replica_lag", "wal_fsync_stall", "window_lru_pressure", "rule_fp_spike"} {
		if !names[want] {
			t.Errorf("default rules missing %q", want)
		}
	}
}

// TestStateMachine drives the pending → firing → resolved lifecycle with a
// gauge signal under a fake clock: table-driven (value, advance) steps with
// the expected state after each evaluation.
func TestStateMachine(t *testing.T) {
	type step struct {
		value float64
		want  State
	}
	const tick = 100 * time.Millisecond
	cases := []struct {
		name  string
		rule  string
		steps []step
	}{
		{
			name: "for hysteresis",
			rule: "alert a for=200ms: value(sig) > 10",
			steps: []step{
				{5, StateInactive},
				{15, StatePending}, // breach at t
				{15, StatePending}, // +100ms < for
				{15, StateFiring},  // +200ms >= for
				{15, StateFiring},  // stays
				{5, StateInactive}, // resolves
				{15, StatePending}, // re-arms from scratch
			},
		},
		{
			name: "dip resets pending",
			rule: "alert a for=200ms: value(sig) > 10",
			steps: []step{
				{15, StatePending},
				{15, StatePending},
				{5, StateInactive}, // dip before `for` elapsed: no fire
				{15, StatePending}, // window restarts
				{15, StatePending},
				{15, StateFiring},
			},
		},
		{
			name: "for zero fires immediately",
			rule: "alert a: value(sig) > 10",
			steps: []step{
				{15, StateFiring},
				{5, StateInactive},
			},
		},
		{
			name: "less-than comparator",
			rule: "alert a for=100ms: value(sig) < 3",
			steps: []step{
				{2, StatePending},
				{2, StateFiring},
				{4, StateInactive},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := telemetry.NewRegistry()
			sig := newSignal(reg, "sig")
			clk := newFakeClock()
			rules, err := ParseRules(strings.NewReader(tc.rule))
			if err != nil {
				t.Fatal(err)
			}
			e := NewEngine(Config{Rules: rules, Sources: Sources{Metrics: reg}, Now: clk.Now})
			defer e.Close()
			for i, st := range tc.steps {
				sig.Set(st.value)
				e.Evaluate()
				snap := e.Snapshot()
				if got := snap.Rules[0].State; got != st.want {
					t.Fatalf("step %d (value %v): state = %s, want %s", i, st.value, got, st.want)
				}
				clk.Advance(tick)
			}
		})
	}
}

// TestStateMachineEvents checks the transition history and firing counts of
// one full fire/resolve cycle.
func TestStateMachineEvents(t *testing.T) {
	reg := telemetry.NewRegistry()
	sig := newSignal(reg, "sig")
	clk := newFakeClock()
	e := NewEngine(Config{
		Rules:   MustParseRules("alert boom severity=page: value(sig) > 1"),
		Sources: Sources{Metrics: reg},
		Now:     clk.Now,
	})
	defer e.Close()

	sig.Set(5)
	e.Evaluate()
	if e.FiringCount() != 1 {
		t.Fatalf("FiringCount = %d after breach, want 1", e.FiringCount())
	}
	if v, ok := reg.Value(`ALERTS{name="boom",severity="page",state="firing"}`); !ok || v != 1 {
		t.Fatalf("ALERTS firing gauge = %v/%v, want 1", v, ok)
	}
	clk.Advance(time.Second)
	sig.Set(0)
	e.Evaluate()
	if e.FiringCount() != 0 {
		t.Fatalf("FiringCount = %d after resolve, want 0", e.FiringCount())
	}
	if v, _ := reg.Value(`ALERTS{name="boom",severity="page",state="firing"}`); v != 0 {
		t.Fatalf("ALERTS firing gauge = %v after resolve, want 0", v)
	}
	snap := e.Snapshot()
	if len(snap.Recent) != 2 {
		t.Fatalf("history = %d events, want firing+resolved", len(snap.Recent))
	}
	if snap.Recent[0].State != StateResolved || snap.Recent[1].State != StateFiring {
		t.Fatalf("history order: %+v", snap.Recent)
	}
	res := snap.Recent[0]
	if res.FiredAt.IsZero() || !res.At.After(res.FiredAt) {
		t.Fatalf("resolved event span: at=%v fired_at=%v", res.At, res.FiredAt)
	}
	if v, _ := reg.Value("rudolf_alert_evals_total"); v != 2 {
		t.Fatalf("evals counter = %v, want 2", v)
	}
	if v, _ := reg.Value(`rudolf_alert_transitions_total{to="resolved"}`); v != 1 {
		t.Fatalf("resolved transitions = %v, want 1", v)
	}
}

// TestMissingSeriesIsNoData: an unregistered series never fires (the
// leader-side contract of the replica-lag default rule), and a firing alert
// whose quantile window dries up resolves.
func TestMissingSeriesIsNoData(t *testing.T) {
	reg := telemetry.NewRegistry()
	clk := newFakeClock()
	e := NewEngine(Config{
		Rules:   MustParseRules("alert lag: value(rudolf_replica_lag_records) > 0"),
		Sources: Sources{Metrics: reg},
		Now:     clk.Now,
	})
	defer e.Close()
	e.Evaluate()
	snap := e.Snapshot()
	if snap.Rules[0].State != StateInactive || snap.Rules[0].HasData {
		t.Fatalf("missing series: %+v", snap.Rules[0])
	}
}

// TestQuantileDelta: pNN evaluates the inter-evaluation delta, so a latency
// breach fires and — crucially — resolves once the load stops, which a
// lifetime-cumulative quantile could never do.
func TestQuantileDelta(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := reg.Histogram("lat", telemetry.StageBuckets)
	clk := newFakeClock()
	e := NewEngine(Config{
		Rules:   MustParseRules("alert slow: p99(lat) > 1ms"),
		Sources: Sources{Metrics: reg},
		Now:     clk.Now,
	})
	defer e.Close()

	// Prime the delta window, then evaluate a window of fast traffic.
	e.Evaluate()
	for i := 0; i < 1000; i++ {
		h.Observe(10e-6)
	}
	clk.Advance(time.Second)
	e.Evaluate()
	if st := e.Snapshot().Rules[0]; st.State != StateInactive || !st.HasData {
		t.Fatalf("fast window: %+v", st)
	}

	// A burst of slow observations breaches the delta p99 even though the
	// lifetime distribution is still dominated by the fast ones.
	for i := 0; i < 100; i++ {
		h.Observe(20e-3)
	}
	clk.Advance(time.Second)
	e.Evaluate()
	if st := e.Snapshot().Rules[0]; st.State != StateFiring {
		t.Fatalf("slow window: state = %s (value %v, data %v), want firing", st.State, st.Value, st.HasData)
	}

	// Load stops: the next window has no observations → no data → resolve.
	clk.Advance(time.Second)
	e.Evaluate()
	if st := e.Snapshot().Rules[0]; st.State != StateInactive || st.HasData {
		t.Fatalf("idle window: %+v, want resolved no-data", st)
	}
}

// TestRate: rate() is the per-second counter increase between evaluations,
// no-data on first sight and after a reset.
func TestRate(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := reg.Counter("reconnects_total")
	clk := newFakeClock()
	e := NewEngine(Config{
		Rules:   MustParseRules("alert churn: rate(reconnects_total) > 0.5"),
		Sources: Sources{Metrics: reg},
		Now:     clk.Now,
	})
	defer e.Close()

	e.Evaluate() // primes
	if st := e.Snapshot().Rules[0]; st.HasData {
		t.Fatalf("first sighting should be no-data: %+v", st)
	}
	c.Add(10)
	clk.Advance(10 * time.Second)
	e.Evaluate() // 10 events / 10s = 1/s > 0.5
	if st := e.Snapshot().Rules[0]; st.State != StateFiring || st.Value != 1 {
		t.Fatalf("rate breach: %+v", st)
	}
	clk.Advance(10 * time.Second)
	e.Evaluate() // no increase → 0/s
	if st := e.Snapshot().Rules[0]; st.State != StateInactive || st.Value != 0 {
		t.Fatalf("rate resolve: %+v", st)
	}
}

// TestMaxRuleSignal: the rulestats signals aggregate per-rule health with
// the evidence floor.
func TestMaxRuleSignal(t *testing.T) {
	snap := rulestats.Snapshot{Rules: []rulestats.RuleHealth{
		{Rule: 0, TP: 1, FP: 1, Drift: -1, LastFiredAgo: -1},   // below evidence floor
		{Rule: 1, TP: 2, FP: 8, Drift: 0.4, LastFiredAgo: 30},  // fp share 0.8
		{Rule: 2, TP: 9, FP: 1, Drift: 0.9, LastFiredAgo: 120}, // fp share 0.1
	}}
	if v, ok := maxRuleSignal(snap, SignalRuleFPShare); !ok || v != 0.8 {
		t.Errorf("fp share = %v/%v, want 0.8 (rule 0 is under the evidence floor)", v, ok)
	}
	if v, ok := maxRuleSignal(snap, SignalRuleDrift); !ok || v != 0.9 {
		t.Errorf("drift = %v/%v, want 0.9", v, ok)
	}
	if v, ok := maxRuleSignal(snap, SignalRuleStaleness); !ok || v != 120 {
		t.Errorf("staleness = %v/%v, want 120", v, ok)
	}
	if _, ok := maxRuleSignal(rulestats.Snapshot{}, SignalRuleFPShare); ok {
		t.Error("empty snapshot should be no-data")
	}

	// End to end through an engine.
	reg := telemetry.NewRegistry()
	e := NewEngine(Config{
		Rules:   MustParseRules("alert fp: max(rule_fp_share) > 0.5"),
		Sources: Sources{Metrics: reg, RuleStats: func() rulestats.Snapshot { return snap }},
		Now:     newFakeClock().Now,
	})
	defer e.Close()
	e.Evaluate()
	if st := e.Snapshot().Rules[0]; st.State != StateFiring || st.Value != 0.8 {
		t.Fatalf("fp spike: %+v", st)
	}
}

// TestHistoryBounded: the transition ring wraps at HistoryCap.
func TestHistoryBounded(t *testing.T) {
	reg := telemetry.NewRegistry()
	sig := newSignal(reg, "sig")
	clk := newFakeClock()
	e := NewEngine(Config{
		Rules:      MustParseRules("alert flap: value(sig) > 0"),
		Sources:    Sources{Metrics: reg},
		HistoryCap: 4,
		Now:        clk.Now,
	})
	defer e.Close()
	for i := 0; i < 10; i++ { // each cycle = firing + resolved
		sig.Set(1)
		e.Evaluate()
		clk.Advance(time.Second)
		sig.Set(0)
		e.Evaluate()
		clk.Advance(time.Second)
	}
	snap := e.Snapshot()
	if len(snap.Recent) != 4 {
		t.Fatalf("history = %d, want the cap 4", len(snap.Recent))
	}
	for i := 1; i < len(snap.Recent); i++ {
		if snap.Recent[i].At.After(snap.Recent[i-1].At) {
			t.Fatalf("history not newest-first: %+v", snap.Recent)
		}
	}
}

// TestSetRules: installing a new set restarts lifecycles, bumps the config
// version and zeroes the gauges of vanished rules.
func TestSetRules(t *testing.T) {
	reg := telemetry.NewRegistry()
	sig := newSignal(reg, "sig")
	e := NewEngine(Config{
		Rules:   MustParseRules("alert old: value(sig) > 0"),
		Sources: Sources{Metrics: reg},
		Now:     newFakeClock().Now,
	})
	defer e.Close()
	sig.Set(1)
	e.Evaluate()
	if e.FiringCount() != 1 {
		t.Fatal("setup: old rule should fire")
	}
	v := e.SetRules(MustParseRules("alert fresh for=1h: value(sig) > 0"))
	if v != 2 {
		t.Fatalf("config version = %d, want 2", v)
	}
	if e.FiringCount() != 0 {
		t.Fatal("firing count should reset on install")
	}
	if g, _ := reg.Value(`ALERTS{name="old",severity="warn",state="firing"}`); g != 0 {
		t.Fatalf("vanished rule's gauge = %v, want 0", g)
	}
	snap := e.Snapshot()
	if len(snap.Rules) != 1 || snap.Rules[0].Name != "fresh" || snap.Rules[0].State != StateInactive {
		t.Fatalf("post-install snapshot: %+v", snap.Rules)
	}
}

// TestConcurrentEvaluate exercises evaluate vs snapshot vs rule install vs
// live signal writes under -race.
func TestConcurrentEvaluate(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := reg.Histogram("lat", telemetry.StageBuckets)
	c := reg.Counter("hits_total")
	e := NewEngine(Config{
		Rules: MustParseRules(
			"alert a: p99(lat) > 1ms\nalert b: rate(hits_total) > 10\nalert c for=1ms: value(rudolf_nope) > 0"),
		Sources: Sources{Metrics: reg},
	})
	defer e.Close()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for _, loop := range []func(){
		func() { h.Observe(0.002); c.Inc() },
		func() { e.Evaluate() },
		func() { _ = e.Snapshot() },
		func() { _ = e.FiringCount() },
		func() { e.SetRules(MustParseRules("alert a: p99(lat) > 1ms")) },
	} {
		wg.Add(1)
		go func(f func()) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					f()
				}
			}
		}(loop)
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
}
