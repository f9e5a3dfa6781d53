package core

import (
	"context"

	"repro/internal/bitset"
	"repro/internal/capture"
	"repro/internal/cluster"
	"repro/internal/cost"
	"repro/internal/index"
	"repro/internal/ontology"
	"repro/internal/order"
	"repro/internal/relation"
	"repro/internal/rules"
	"repro/internal/trace"
)

// Options configures a refinement session. The zero value is usable: it
// yields the paper's defaults (α = β = γ = 1, top-3 rule candidates, leader
// clustering, unit modification costs).
type Options struct {
	// Weights are the α/β/γ coefficients of Definition 3.1. The zero value
	// means cost.DefaultWeights() unless WeightsSet is true.
	Weights cost.Weights
	// WeightsSet marks Weights as explicitly configured, so that an all-zero
	// Weights value is honored verbatim instead of being replaced by the
	// paper defaults. Degenerate-weight regimes (e.g. a γ-only study sets
	// α = β = 0, or all-zero to ignore benefits entirely) are legitimate
	// configurations that the zero-value-means-default convention alone
	// cannot express.
	WeightsSet bool
	// TopK is the number of candidate rules ranked per cluster in
	// Algorithm 1 (line 4). 0 means DefaultTopK.
	TopK int
	// Clusterer groups fraudulent transactions; nil means cluster.Leader{}.
	Clusterer cluster.Algorithm
	// CostModel prices modifications; nil means cost.UnitModel{}.
	CostModel cost.Model
	// NumericOnly disables refinement of categorical attributes, realizing
	// the RUDOLF-s variant of Section 5 (comparable to prior systems that
	// refine only numerical attributes).
	NumericOnly bool
	// MaxRounds bounds the generalize/specialize loop of Refine. 0 means
	// DefaultMaxRounds.
	MaxRounds int
	// Tracer, when non-nil, receives spans for every refinement round, phase
	// (generalize/specialize/stats), expert query and applied modification.
	// Nil (the default) is free: the span helpers are nil-safe no-ops with
	// zero allocations (see trace.BenchmarkNilTracer).
	Tracer *trace.Tracer
	// TraceParent, when live, becomes the parent of the session's spans, so a
	// caller holding its own span (e.g. the serving daemon's per-request
	// span) sees the refinement nested under it. The zero Span makes session
	// spans roots on their own track.
	TraceParent trace.Span
}

// DefaultTopK is the number of candidate rules considered per cluster.
const DefaultTopK = 3

// DefaultMaxRounds bounds the refinement loop when the expert never
// declares itself satisfied.
const DefaultMaxRounds = 8

func (o Options) weights() cost.Weights {
	if o.WeightsSet {
		return o.Weights
	}
	if o.Weights == (cost.Weights{}) {
		return cost.DefaultWeights()
	}
	return o.Weights
}

func (o Options) topK() int {
	if o.TopK <= 0 {
		return DefaultTopK
	}
	return o.TopK
}

func (o Options) clusterer() cluster.Algorithm {
	if o.Clusterer == nil {
		return cluster.Leader{}
	}
	return o.Clusterer
}

func (o Options) costModel() cost.Model {
	if o.CostModel == nil {
		return cost.UnitModel{}
	}
	return o.CostModel
}

func (o Options) maxRounds() int {
	if o.MaxRounds <= 0 {
		return DefaultMaxRounds
	}
	return o.MaxRounds
}

// Session drives interactive rule refinement: it owns the evolving rule set
// and the modification log, consults the expert on every proposal, and is
// re-invoked as new transactions arrive.
type Session struct {
	ruleSet *rules.Set
	expert  Expert
	opts    Options
	log     Log
	rounds  int
	// cache is the incremental capture cache over the relation the session
	// is currently refining: per-rule compiled capture bitsets plus their
	// running union, updated per rule edit instead of re-scanned per query.
	// All rule-set mutations must go through setAdd/setReplace/setRemove so
	// the cache stays equal to ruleSet.Eval(rel).
	cache *capture.Cache
	// cur is the innermost live span of the session's trace (the zero Span
	// when untraced). Sessions are single-threaded, so a plain field with
	// save/restore in startPhase suffices for correct nesting.
	cur trace.Span
	// ctx is the context of the running RefineContext (nil outside one); a
	// session whose context has ended asks the expert nothing more.
	ctx context.Context
}

// NewSession starts a session over an existing rule set. The rule set is
// cloned; the caller's copy is never modified.
func NewSession(ruleSet *rules.Set, expert Expert, opts Options) *Session {
	return &Session{ruleSet: ruleSet.Clone(), expert: expert, opts: opts, cur: opts.TraceParent}
}

// startPhase opens a span under the session's current span and makes it
// current. The returned func ends it and restores the previous current span;
// callers must invoke it (defer-style) when the phase completes. With a nil
// tracer both the span and the closure are free.
func (s *Session) startPhase(name string) (trace.Span, func()) {
	prev := s.cur
	sp := trace.StartUnder(s.opts.Tracer, prev, name)
	s.cur = sp
	return sp, func() {
		sp.End()
		s.cur = prev
	}
}

// logMod appends a modification to the session log and mirrors it as a
// "mod.<kind>" span under the current phase, carrying the rule index,
// attribute, cost and whether the expert was overridden. Every log append in
// the session goes through here so the trace and the log of Section 4's
// "modification log" stay in one-to-one correspondence. The log contents are
// identical to an untraced run (TestTracedSessionIsByteIdentical).
func (s *Session) logMod(m Modification) {
	s.log.Append(m)
	sp := s.cur.Child("mod." + m.Kind.String())
	sp.Int("rule", int64(m.RuleIndex)).Int("attr", int64(m.Attr)).Float("cost", m.Cost)
	if m.Forced {
		sp.Bool("forced", true)
	}
	sp.End()
}

// Rules returns the session's current rule set. Callers must treat it as
// read-only; use Clone for a private copy.
func (s *Session) Rules() *rules.Set { return s.ruleSet }

// Log returns the session's modification log.
func (s *Session) Log() *Log { return &s.log }

// captureFor returns the session's incremental capture cache bound to rel,
// (re)building it when the relation changed since the last query or when the
// cache drifted from the rule set (which can only happen if a caller mutated
// the set behind the session's back). Binding costs one compiled parallel
// pass; every query and per-rule edit afterwards is incremental.
func (s *Session) captureFor(rel *relation.Relation) *capture.Cache {
	if s.cache == nil {
		s.cache = capture.New()
		s.cache.Tracer = s.opts.Tracer
	}
	s.cache.Ensure(rel, s.ruleSet)
	return s.cache
}

// CaptureStats reports the session capture cache's lifetime hit, rebind and
// invalidate counters (zero before the first capture query). The serving
// daemon exports them as rudolf_capture_cache_*{caller="refine"} metrics.
func (s *Session) CaptureStats() (hits, rebinds, invalidates uint64) {
	if s.cache == nil {
		return 0, 0, 0
	}
	return s.cache.Stats()
}

// setAdd appends a rule to the session's rule set and keeps the capture
// cache in lockstep: only the new rule is compiled and evaluated.
func (s *Session) setAdd(r *rules.Rule) int {
	idx := s.ruleSet.Add(r)
	if s.cache != nil {
		if s.cache.Len() == idx {
			s.cache.RuleAdded(r)
		} else {
			s.cache.Invalidate()
		}
	}
	return idx
}

// setReplace swaps the rule at idx, re-evaluating only that rule's captures.
func (s *Session) setReplace(idx int, r *rules.Rule) {
	s.ruleSet.Replace(idx, r)
	if s.cache != nil {
		if s.cache.Len() == s.ruleSet.Len() && idx < s.cache.Len() {
			s.cache.RuleReplaced(idx, r)
		} else {
			s.cache.Invalidate()
		}
	}
}

// setRemove deletes the rule at idx, dropping its cached captures.
func (s *Session) setRemove(idx int) {
	s.ruleSet.Remove(idx)
	if s.cache != nil {
		if s.cache.Len() == s.ruleSet.Len()+1 && idx <= s.ruleSet.Len() {
			s.cache.RuleRemoved(idx)
		} else {
			s.cache.Invalidate()
		}
	}
}

// EvalOn evaluates the session's current rules over an arbitrary relation
// with the compiled parallel evaluator — the batch-classification path for
// Predict-style callers scoring a future window. Unlike the capture cache it
// keeps no state, so it suits one-shot evaluation of relations the session
// is not refining.
func (s *Session) EvalOn(rel *relation.Relation) *bitset.Set {
	sp, done := s.startPhase("session.eval_on")
	defer done()
	ev := index.CompileUnder(sp, rel.Schema(), s.ruleSet)
	return ev.EvalUnder(sp, rel)
}

// Stats computes the round statistics of the current rules over rel.
func (s *Session) Stats(rel *relation.Relation) RoundStats {
	sp, done := s.startPhase("refine.stats")
	defer done()
	capturedBy := s.captureFor(rel).Union()
	st := RoundStats{Round: s.rounds, Modifications: s.log.Len()}
	for i := 0; i < rel.Len(); i++ {
		switch rel.Label(i) {
		case relation.Fraud:
			st.FraudTotal++
			if capturedBy.Has(i) {
				st.FraudCaptured++
			}
		case relation.Legitimate:
			st.LegitTotal++
			if capturedBy.Has(i) {
				st.LegitCaptured++
			}
		default:
			if capturedBy.Has(i) {
				st.UnlabeledCaptured++
			}
		}
	}
	sp.Int("fraud_captured", int64(st.FraudCaptured)).Int("legit_captured", int64(st.LegitCaptured)).
		Int("unlabeled_captured", int64(st.UnlabeledCaptured))
	return st
}

// CaptureRemaining creates one transaction-specific rule per reported
// fraudulent transaction the current rules still miss — the closing option
// of the general algorithm in Section 4 ("the domain expert has a choice to
// leave the result as-is or allow the algorithm to create
// transaction-specific rules to capture each of the remaining
// transactions"). It returns the number of rules added.
func (s *Session) CaptureRemaining(rel *relation.Relation) int {
	schema := rel.Schema()
	cache := s.captureFor(rel)
	added := 0
	for _, f := range rel.Indices(relation.Fraud) {
		if cache.Captured(f) {
			continue
		}
		t := rel.Tuple(f)
		r := rules.NewRule(schema)
		for i := 0; i < schema.Arity(); i++ {
			if schema.Attr(i).Kind == relation.Categorical {
				r.SetCond(i, rules.ConceptCond(ontology.Concept(t[i])))
				continue
			}
			r.SetCond(i, rules.NumericCond(order.Point(t[i])))
		}
		idx := s.setAdd(r)
		s.logMod(Modification{
			Kind:        cost.RuleAdd,
			RuleIndex:   idx,
			Attr:        -1,
			Cost:        s.opts.costModel().ModificationCost(cost.RuleAdd, -1),
			Description: "transaction-specific rule: " + r.Format(schema),
		})
		added++
	}
	return added
}

// stopped reports whether the running RefineContext's context has ended.
func (s *Session) stopped() bool { return s.ctx != nil && s.ctx.Err() != nil }

// Refine runs the general rule modification algorithm of Section 4 over the
// relation (old and new transactions together): generalize to capture
// fraudulent transactions, specialize to exclude legitimate ones, and repeat
// until the expert is satisfied, the rules are stable, or MaxRounds passes
// have run. It returns the statistics after the final round.
func (s *Session) Refine(rel *relation.Relation) RoundStats {
	return s.RefineContext(context.Background(), rel)
}

// RefineContext is Refine under ctx. The context is checked at the top of
// every round and before every expert query (and before the ranking or split
// search that leads to one); once it has ended the session asks the expert
// nothing more and returns, leaving its rules part-refined.
// The caller tells a stopped session by ctx.Err() and should discard it.
// The Expert interface takes no context, so a query already in progress
// delays the return until the expert answers.
func (s *Session) RefineContext(ctx context.Context, rel *relation.Relation) RoundStats {
	s.ctx = ctx
	defer func() { s.ctx = nil }()
	root, done := s.startPhase("session.refine")
	root.Int("rows", int64(rel.Len())).Int("rules", int64(s.ruleSet.Len()))
	defer done()
	var st RoundStats
	for i := 0; i < s.opts.maxRounds() && ctx.Err() == nil; i++ {
		sp, endRound := s.startPhase("refine.round")
		sp.Int("round", int64(s.rounds))
		before := s.log.Len()
		s.Generalize(rel)
		s.Specialize(rel)
		s.rounds++
		if s.stopped() {
			endRound()
			break
		}
		st = s.Stats(rel)
		sp.Int("mods", int64(s.log.Len()-before)).
			Int("fraud_captured", int64(st.FraudCaptured)).
			Int("legit_captured", int64(st.LegitCaptured))
		endRound()
		if s.expert.Satisfied(st) || s.log.Len() == before {
			break
		}
	}
	root.Int("rounds", int64(st.Round)).Int("mods_total", int64(s.log.Len()))
	return st
}
