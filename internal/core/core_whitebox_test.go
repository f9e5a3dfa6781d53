package core

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/cost"
	"repro/internal/order"
	"repro/internal/paperdata"
	"repro/internal/relation"
	"repro/internal/rules"
)

// stubExpert is a minimal in-package expert for white-box tests.
type stubExpert struct {
	gen       func(*GenProposal) GenDecision
	split     func(*SplitProposal) SplitDecision
	satisfied bool
}

func (e *stubExpert) ReviewGeneralization(p *GenProposal) GenDecision {
	if e.gen == nil {
		return GenDecision{Accept: true}
	}
	return e.gen(p)
}

func (e *stubExpert) ReviewSplit(p *SplitProposal) SplitDecision {
	if e.split == nil {
		return SplitDecision{Accept: true}
	}
	return e.split(p)
}

func (e *stubExpert) Satisfied(RoundStats) bool { return e.satisfied }

func TestOptionsDefaults(t *testing.T) {
	var o Options
	if o.weights() != cost.DefaultWeights() {
		t.Error("weights default wrong")
	}
	if o.topK() != DefaultTopK {
		t.Error("topK default wrong")
	}
	if _, ok := o.clusterer().(cluster.Leader); !ok {
		t.Error("clusterer default wrong")
	}
	if _, ok := o.costModel().(cost.UnitModel); !ok {
		t.Error("cost model default wrong")
	}
	if o.maxRounds() != DefaultMaxRounds {
		t.Error("maxRounds default wrong")
	}
	o = Options{Weights: cost.Weights{Alpha: 2}, TopK: 7, MaxRounds: 3}
	if o.weights().Alpha != 2 || o.topK() != 7 || o.maxRounds() != 3 {
		t.Error("explicit options not honored")
	}
}

// TestOptionsWeightsSet is the regression test for the silent weight
// substitution: weights() used to treat "all three coefficients are zero" as
// "unconfigured" and replace them with the defaults, so an experimenter
// explicitly studying α = β = γ = 0 (pure-distance ranking) silently ran the
// default ranking instead. WeightsSet marks the weights as deliberate.
func TestOptionsWeightsSet(t *testing.T) {
	// Explicit all-zero weights are honored verbatim.
	o := Options{WeightsSet: true}
	if got := o.weights(); got != (cost.Weights{}) {
		t.Errorf("explicit zero weights replaced by %+v", got)
	}
	// The zero-value Options stays usable: defaults still apply.
	if got := (Options{}).weights(); got != cost.DefaultWeights() {
		t.Errorf("zero-value Options weights = %+v, want defaults", got)
	}
	// WeightsSet also pins partial weights that would otherwise be taken
	// verbatim anyway — setting the flag must never change their meaning.
	w := cost.Weights{Beta: 3}
	if got := (Options{Weights: w, WeightsSet: true}).weights(); got != w {
		t.Errorf("flagged partial weights = %+v, want %+v", got, w)
	}
	if got := (Options{Weights: w}).weights(); got != w {
		t.Errorf("unflagged partial weights = %+v, want %+v", got, w)
	}
}

func TestResolveGenDecision(t *testing.T) {
	s := paperdata.Schema()
	original := rules.MustParse(s, "amount >= $110 && time in [18:00,18:05]")
	proposed := rules.MustParse(s, "amount >= $106 && time in [17:50,18:05]")
	edited := rules.MustParse(s, "amount >= $100 && time in [17:50,18:05]")
	sess := NewSession(rules.NewSet(), &stubExpert{}, Options{})

	// Accept plain.
	got := sess.resolveGenDecision(original, proposed, []int{0, 1}, GenDecision{Accept: true})
	if !got.Equal(s, proposed) {
		t.Error("accept should adopt the proposal")
	}
	// Accept with edit.
	got = sess.resolveGenDecision(original, proposed, []int{0, 1}, GenDecision{Accept: true, Edited: edited})
	if !got.Equal(s, edited) {
		t.Error("accept with edit should adopt the edit")
	}
	// Reject with partial revert: keep the amount change, revert time.
	got = sess.resolveGenDecision(original, proposed, []int{0, 1},
		GenDecision{Accept: false, RevertAttrs: []int{0}})
	if !got.Cond(0).Equal(s.Attr(0), original.Cond(0)) {
		t.Error("reverted attribute should match the original")
	}
	if !got.Cond(1).Equal(s.Attr(1), proposed.Cond(1)) {
		t.Error("non-reverted attribute should keep the proposal")
	}
	// Reject with full revert and a further generalization.
	got = sess.resolveGenDecision(original, proposed, []int{0, 1},
		GenDecision{Accept: false, RevertAttrs: []int{0, 1}, Edited: edited})
	if !got.Equal(s, edited) {
		t.Error("expert edit should win after reverts")
	}
}

func TestRankRulesOrderAndTopK(t *testing.T) {
	s := paperdata.Schema()
	rel := paperdata.Transactions(s)
	rs := paperdata.ExistingRules(s)
	sess := NewSession(rs, &stubExpert{}, Options{TopK: 2})
	reps := cluster.Representatives(cluster.Leader{}, rel, rel.Indices(relation.Fraud))
	ranked := sess.rankRules(rel, s, reps[0])
	if len(ranked) != 2 {
		t.Fatalf("topK not applied: %d", len(ranked))
	}
	if sess.ruleSet.IndexOf(ranked[0].rule) != 0 || sess.ruleSet.IndexOf(ranked[1].rule) != 1 {
		t.Errorf("ranking = %+v, want rules 0 then 1 (Example 4.4)", ranked)
	}
	if ranked[0].score != 2 || ranked[1].score != 56 {
		t.Errorf("scores = %v, %v; want 2, 56", ranked[0].score, ranked[1].score)
	}
}

func TestRepHandled(t *testing.T) {
	s := paperdata.Schema()
	rel := paperdata.Transactions(s)
	rs := paperdata.ExistingRules(s)
	sess := NewSession(rs, &stubExpert{}, Options{})
	reps := cluster.Representatives(cluster.Leader{}, rel, rel.Indices(relation.Fraud))
	if sess.repHandled(rel, s, reps[0]) {
		t.Error("rep1 should not be handled by the original rules")
	}
	// A rule containing the whole representative handles the cluster.
	wide := rules.MustParse(s, "amount >= $1")
	sess.ruleSet.Add(wide)
	if !sess.repHandled(rel, s, reps[0]) {
		t.Error("rep1 should be handled after adding a wide rule")
	}
	// A rule set capturing every member (but containing no single rule that
	// contains the representative pattern) also handles the cluster.
	sess2 := NewSession(rules.NewSet(
		rules.MustParse(s, "time = 18:02"),
		rules.MustParse(s, "time = 18:03"),
	), &stubExpert{}, Options{})
	if !sess2.repHandled(rel, s, reps[0]) {
		t.Error("per-member capture should count as handled")
	}
}

func TestSplitOnAttrNumeric(t *testing.T) {
	s := paperdata.Schema()
	r := rules.MustParse(s, "time in [18:00,18:05] && amount >= $100")
	reps, ok := splitOnAttr(s, r, 0, 18*60+4)
	if !ok || len(reps) != 2 {
		t.Fatalf("split = %v rules, ok=%v", len(reps), ok)
	}
	if !reps[0].Cond(0).Iv.Equal(order.Interval{Lo: 18 * 60, Hi: 18*60 + 3}) {
		t.Errorf("left split = %v", reps[0].Cond(0).Iv)
	}
	if !reps[1].Cond(0).Iv.Equal(order.Point(18*60 + 5)) {
		t.Errorf("right split = %v", reps[1].Cond(0).Iv)
	}
	// Amount condition must be untouched in both.
	for _, rr := range reps {
		if !rr.Cond(1).Equal(s.Attr(1), r.Cond(1)) {
			t.Error("split touched an unrelated condition")
		}
	}
}

func TestSplitOnAttrNumericEdges(t *testing.T) {
	s := paperdata.Schema()
	// Value at the left boundary: only the right part remains.
	r := rules.MustParse(s, "amount in [$50,$60]")
	reps, ok := splitOnAttr(s, r, 1, 50)
	if !ok || len(reps) != 1 || !reps[0].Cond(1).Iv.Equal(order.Interval{Lo: 51, Hi: 60}) {
		t.Errorf("boundary split wrong: %v", reps)
	}
	// Point condition equal to the value: nothing remains.
	r = rules.MustParse(s, "amount = $50")
	reps, ok = splitOnAttr(s, r, 1, 50)
	if !ok || len(reps) != 0 {
		t.Errorf("point split should yield no replacements, got %d (ok=%v)", len(reps), ok)
	}
}

// TestSplitOnAttrCategoricalPaper reproduces the categorical split of
// Example 4.7: excluding "Online, with CCV" from an unconstrained type
// yields rules for "Offline" and "Online, no CCV".
func TestSplitOnAttrCategoricalPaper(t *testing.T) {
	s := paperdata.Schema()
	typeOnt := s.Attr(2).Ontology
	r := rules.MustParse(s, "time in [18:00,18:05] && amount >= $100")
	reps, ok := splitOnAttr(s, r, 2, int64(typeOnt.MustLookup("Online, with CCV")))
	if !ok || len(reps) != 2 {
		t.Fatalf("split = %d rules, ok=%v", len(reps), ok)
	}
	names := map[string]bool{}
	for _, rr := range reps {
		names[typeOnt.ConceptName(rr.Cond(2).C)] = true
	}
	if !names["Offline"] || !names["Online, no CCV"] {
		t.Errorf("cover concepts = %v, want {Offline, Online, no CCV}", names)
	}
}

func TestLogAccounting(t *testing.T) {
	var l Log
	l.Append(Modification{Kind: cost.CondRefine, Cost: 1})
	l.Append(Modification{Kind: cost.CondRefine, Cost: 2})
	l.Append(Modification{Kind: cost.RuleAdd, Cost: 1, Forced: true})
	if l.Len() != 3 {
		t.Errorf("Len = %d", l.Len())
	}
	byKind := l.CountByKind()
	if byKind[cost.CondRefine] != 2 || byKind[cost.RuleAdd] != 1 {
		t.Errorf("CountByKind = %v", byKind)
	}
	if s := l.String(); len(s) == 0 {
		t.Error("String empty")
	}
	if len(l.All()) != 3 {
		t.Error("All length wrong")
	}
}

func TestRoundStatsPerfect(t *testing.T) {
	st := RoundStats{FraudTotal: 5, FraudCaptured: 5, LegitCaptured: 0}
	if !st.Perfect() {
		t.Error("should be perfect")
	}
	st.LegitCaptured = 1
	if st.Perfect() {
		t.Error("legit captured but perfect")
	}
	st = RoundStats{FraudTotal: 5, FraudCaptured: 4}
	if st.Perfect() {
		t.Error("missed fraud but perfect")
	}
}

func TestSessionDoesNotMutateCallerRules(t *testing.T) {
	s := paperdata.Schema()
	rel := paperdata.Transactions(s)
	original := paperdata.ExistingRules(s)
	want := original.Format(s)
	sess := NewSession(original, &stubExpert{}, Options{})
	sess.Generalize(rel)
	if original.Format(s) != want {
		t.Error("session mutated the caller's rule set")
	}
	if sess.Rules().Format(s) == want {
		t.Error("session rules unchanged after generalization")
	}
}

// TestNumericOnlySkipsCategoricalChanges verifies the RUDOLF-s variant: a
// representative requiring a categorical generalization is handled with a
// new exact rule instead of a categorical condition change.
func TestNumericOnlySkipsCategoricalChanges(t *testing.T) {
	s := paperdata.Schema()
	rel := paperdata.Transactions(s)
	// Rule 3 (location = Gas Station A) would need a location generalization
	// to capture the Gas Station B cluster.
	rs := rules.NewSet(rules.MustParse(s,
		`time in [20:45,21:15] && amount >= $40 && location = "Gas Station A"`))
	var sawCategorical bool
	e := &stubExpert{gen: func(p *GenProposal) GenDecision {
		for _, a := range p.Changed {
			if p.Schema.Attr(a).Kind == relation.Categorical && p.RuleIndex >= 0 {
				sawCategorical = true
			}
		}
		return GenDecision{Accept: true}
	}}
	sess := NewSession(rs, e, Options{NumericOnly: true})
	sess.Generalize(rel)
	if sawCategorical {
		t.Error("NumericOnly proposed a categorical condition change")
	}
	// All frauds must still be captured (via added exact rules).
	st := sess.Stats(rel)
	if st.FraudCaptured != st.FraudTotal {
		t.Errorf("frauds captured %d/%d", st.FraudCaptured, st.FraudTotal)
	}
}

// TestForcedSplitWhenExpertRejectsEverything: the legitimate tuple must be
// excluded even if the expert rejects all proposals.
func TestForcedSplitWhenExpertRejectsEverything(t *testing.T) {
	s := paperdata.Schema()
	rel := paperdata.Transactions(s)
	paperdata.LegitimateFollowUp(rel)
	rs := rules.NewSet(rules.MustParse(s, "time in [18:00,18:05] && amount >= $100"))
	e := &stubExpert{split: func(*SplitProposal) SplitDecision {
		return SplitDecision{Accept: false}
	}}
	sess := NewSession(rs, e, Options{})
	sess.Specialize(rel)
	st := sess.Stats(rel)
	if st.LegitCaptured != 0 {
		t.Errorf("legitimate still captured: %d", st.LegitCaptured)
	}
	forced := false
	for _, m := range sess.Log().All() {
		if m.Forced {
			forced = true
		}
	}
	if !forced {
		t.Error("no forced modification logged")
	}
}

// TestSpecializePreservesFrauds: after excluding the legitimate tuples of
// Example 4.7, the frauds captured before are still captured.
func TestSpecializePreservesFrauds(t *testing.T) {
	s := paperdata.Schema()
	rel := paperdata.Transactions(s)
	paperdata.LegitimateFollowUp(rel)
	rs := rules.NewSet(
		rules.MustParse(s, "time in [18:00,18:05] && amount >= $100"),
		rules.MustParse(s, "time in [18:55,19:15] && amount >= $110"),
		rules.MustParse(s, `time in [20:45,21:15] && amount >= $40 && location <= "Gas Station"`),
	)
	sess := NewSession(rs, &stubExpert{}, Options{})
	before := sess.Stats(rel)
	if before.FraudCaptured != 6 || before.LegitCaptured != 3 {
		t.Fatalf("unexpected starting stats: %+v", before)
	}
	sess.Specialize(rel)
	after := sess.Stats(rel)
	if after.LegitCaptured != 0 {
		t.Errorf("legitimate still captured: %d", after.LegitCaptured)
	}
	if after.FraudCaptured != 6 {
		t.Errorf("frauds lost by specialization: %d/6", after.FraudCaptured)
	}
}

// TestSplitCandidateOrdering reproduces Example 4.7's benefit reasoning:
// splitting rule 1 on location would lose two frauds, so location ranks
// strictly below time/amount/type.
func TestSplitCandidateOrdering(t *testing.T) {
	s := paperdata.Schema()
	rel := paperdata.Transactions(s)
	paperdata.LegitimateFollowUp(rel)
	r := rules.MustParse(s, "time in [18:00,18:05] && amount >= $100")
	sess := NewSession(rules.NewSet(r), &stubExpert{}, Options{})
	cands := sess.splitCandidates(rel, s, sess.ruleSet.Rule(0), 0, 2)
	if len(cands) != 4 {
		t.Fatalf("got %d candidates, want 4", len(cands))
	}
	if cands[0].attr != 0 {
		t.Errorf("first candidate attr = %d, want 0 (time, by order among ties)", cands[0].attr)
	}
	last := cands[len(cands)-1]
	if last.attr != 3 {
		t.Errorf("worst candidate attr = %d, want 3 (location)", last.attr)
	}
	if last.benefit >= cands[0].benefit {
		t.Errorf("location benefit %v not below time benefit %v", last.benefit, cands[0].benefit)
	}
	if last.benefit != 1-2 {
		t.Errorf("location benefit = %v, want -1 (one legit excluded, two frauds lost)", last.benefit)
	}
}

// TestGeneralizeSurvivesMidLoopRemoval is the regression test for the stale
// ruleIndex family: candidates used to carry the index they had at ranking
// time, so any removal between ranking and application shifted the indices
// and the expert's decision was applied to the wrong rule (or panicked out of
// range). Here the rule set shrinks *during* the expert review — the exact
// window the fix re-resolves over — and the edit must still land on the rule
// the expert actually reviewed.
func TestGeneralizeSurvivesMidLoopRemoval(t *testing.T) {
	s := paperdata.Schema()
	rel := paperdata.Transactions(s)
	decoy := rules.MustParse(s, "time in [01:00,01:10] && amount >= $5000")
	target := rules.MustParse(s, "time in [18:00,18:04] && amount >= $107")
	rs := rules.NewSet(decoy, target) // best-ranked rule sits at index 1

	var sess *Session
	removed := false
	e := &stubExpert{gen: func(p *GenProposal) GenDecision {
		if !removed && p.RuleIndex >= 0 {
			// Mid-review, another actor (a concurrent prune, a split, an
			// expert deletion) removes the decoy: every later index shifts.
			// The session clones the caller's rules, so find the decoy as
			// "the session rule that is not under review".
			for i, r := range sess.ruleSet.Rules() {
				if r != p.Original {
					sess.setRemove(i)
					removed = true
					break
				}
			}
		}
		return GenDecision{Accept: true}
	}}
	sess = NewSession(rs, e, Options{})
	reps := cluster.Representatives(cluster.Leader{}, rel, rel.Indices(relation.Fraud))
	sess.generalizeForRep(rel, s, reps[0]) // 18:02/18:03 cluster

	if !removed {
		t.Fatal("test harness never removed the decoy")
	}
	if got := sess.ruleSet.Len(); got != 1 {
		t.Fatalf("rule set has %d rules, want 1 (decoy removed, target edited in place)", got)
	}
	final := sess.ruleSet.Rule(0)
	if !ruleContainsRep(s, final, reps[0]) {
		t.Errorf("edit did not land on the reviewed rule: %s", final.Format(s))
	}
}

// TestGeneralizeDiscardsDecisionForVanishedRule covers the other side of the
// stale-index window: the rule under review itself disappears during the
// review. The accepted decision must be discarded (there is nothing to apply
// it to) and the algorithm must fall through to line 18's exact rule instead
// of touching whatever rule inherited the index.
func TestGeneralizeDiscardsDecisionForVanishedRule(t *testing.T) {
	s := paperdata.Schema()
	rel := paperdata.Transactions(s)
	target := rules.MustParse(s, "time in [18:00,18:04] && amount >= $107")
	rs := rules.NewSet(target)

	var sess *Session
	e := &stubExpert{gen: func(p *GenProposal) GenDecision {
		if p.RuleIndex >= 0 {
			if ti := sess.ruleSet.IndexOf(p.Original); ti >= 0 {
				sess.setRemove(ti) // the reviewed rule vanishes mid-review
			}
		}
		return GenDecision{Accept: true}
	}}
	sess = NewSession(rs, e, Options{TopK: 1})
	reps := cluster.Representatives(cluster.Leader{}, rel, rel.Indices(relation.Fraud))
	sess.generalizeForRep(rel, s, reps[0])

	if got := sess.ruleSet.Len(); got != 1 {
		t.Fatalf("rule set has %d rules, want 1 (the line-18 exact rule)", got)
	}
	if !ruleContainsRep(s, sess.ruleSet.Rule(0), reps[0]) {
		t.Errorf("fallback rule does not cover the representative: %s",
			sess.ruleSet.Rule(0).Format(s))
	}
	if got := sess.Log().CountByKind()[cost.RuleAdd]; got != 1 {
		t.Errorf("logged %d rule additions, want exactly 1", got)
	}
}

// TestCaptureRemaining: the closing step of the general algorithm adds one
// transaction-specific rule per missed fraud, after which nothing is missed.
func TestCaptureRemaining(t *testing.T) {
	s := paperdata.Schema()
	rel := paperdata.Transactions(s)
	sess := NewSession(rules.NewSet(), &stubExpert{}, Options{})
	added := sess.CaptureRemaining(rel)
	if added != 6 {
		t.Fatalf("added %d rules, want 6 (one per fraud)", added)
	}
	st := sess.Stats(rel)
	if st.FraudCaptured != st.FraudTotal {
		t.Errorf("frauds still missed: %d/%d", st.FraudCaptured, st.FraudTotal)
	}
	// Transaction-specific rules capture nothing else.
	if st.LegitCaptured != 0 || st.UnlabeledCaptured != 0 {
		t.Errorf("transaction-specific rules over-capture: %+v", st)
	}
	// Idempotent: a second call adds nothing.
	if sess.CaptureRemaining(rel) != 0 {
		t.Error("second CaptureRemaining added rules")
	}
	// All logged as rule additions.
	if got := sess.Log().CountByKind()[cost.RuleAdd]; got != 6 {
		t.Errorf("logged %d rule additions, want 6", got)
	}
}
