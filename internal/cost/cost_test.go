package cost

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/ontology"
	"repro/internal/order"
	"repro/internal/paperdata"
	"repro/internal/relation"
	"repro/internal/rules"
)

// rep1 is the first representative tuple of Example 4.4: the cluster of the
// first two fraudulent transactions of Figure 2.
func rep1(s *relation.Schema) []rules.Condition {
	typeOnt := s.Attr(2).Ontology
	locOnt := s.Attr(3).Ontology
	return []rules.Condition{
		rules.NumericCond(order.Interval{Lo: 18*60 + 2, Hi: 18*60 + 3}),
		rules.NumericCond(order.Interval{Lo: 106, Hi: 107}),
		rules.ConceptCond(typeOnt.MustLookup("Online, no CCV")),
		rules.ConceptCond(locOnt.MustLookup("Online Store")),
	}
}

func TestWeightsBenefit(t *testing.T) {
	w := Weights{Alpha: 2, Beta: 3, Gamma: 5}
	if got := w.Benefit(1, -2, 4); got != 2-6+20 {
		t.Errorf("Benefit = %v, want 16", got)
	}
	if DefaultWeights() != (Weights{1, 1, 1}) {
		t.Error("DefaultWeights != (1,1,1)")
	}
}

func TestCondDistanceNumeric(t *testing.T) {
	s := paperdata.Schema()
	amount := s.Attr(1)
	rule := rules.NumericCond(order.Interval{Lo: 110, Hi: 100000})
	target := rules.NumericCond(order.Interval{Lo: 106, Hi: 107})
	if got := CondDistance(amount, rule, target); got != 4 {
		t.Errorf("amount distance = %v, want 4 (Example 4.4)", got)
	}
}

func TestCondDistanceCategorical(t *testing.T) {
	s := paperdata.Schema()
	locAttr := s.Attr(3)
	lo := locAttr.Ontology
	a := rules.ConceptCond(lo.MustLookup("Gas Station A"))
	b := rules.ConceptCond(lo.MustLookup("Gas Station B"))
	if got := CondDistance(locAttr, a, b); got != 1 {
		t.Errorf("|Gas Station B − Gas Station A| = %v, want 1 (Example 4.4)", got)
	}
	shop := rules.ConceptCond(lo.MustLookup("Online Store"))
	if got := CondDistance(locAttr, a, shop); got != 2 {
		t.Errorf("|Online Store − Gas Station A| = %v, want 2", got)
	}
}

// TestRuleDistanceExample44 pins the Equation 1 distances of the three
// Figure 1 rules from the first representative tuple. (The paper's prose
// says 178 for rule 3's time component; the formal definition gives
// |20:45 − 18:02| = 163 — see DESIGN.md.)
func TestRuleDistanceExample44(t *testing.T) {
	s := paperdata.Schema()
	rs := paperdata.ExistingRules(s)
	rep := rep1(s)
	for i, want := range []float64{
		0 + 4 + 0 + 0,   // rule 1
		53 + 4 + 0 + 0,  // rule 2
		163 + 0 + 0 + 2, // rule 3 (see note above; location distance is 2: A → Gas Station → World)
	} {
		if got := RuleDistance(s, rs.Rule(i), rep); got != want {
			t.Errorf("rule %d distance = %v, want %v", i+1, got, want)
		}
	}
}

func TestDeltasSetWide(t *testing.T) {
	s := paperdata.Schema()
	rel := paperdata.Transactions(s)
	old := paperdata.ExistingRules(s)
	// Generalize rule 1 minimally to capture rep1.
	gen, changed := rules.GeneralizeToCover(s, old.Rule(0), rep1(s))
	if len(changed) != 1 || changed[0] != 1 {
		t.Fatalf("changed = %v, want [1] (amount only)", changed)
	}
	new := old.Clone()
	new.Replace(0, gen)
	dF, dL, dR := Deltas(old, new, rel)
	if dF != 2 || dL != 0 || dR != 0 {
		t.Errorf("Deltas = (%d,%d,%d), want (2,0,0)", dF, dL, dR)
	}
}

func TestDeltasDetectLegitimate(t *testing.T) {
	s := paperdata.Schema()
	rel := paperdata.Transactions(s)
	paperdata.LegitimateFollowUp(rel)
	old := paperdata.ExistingRules(s)
	// Removing rule 1 un-captures l1 (tuple 2, now labeled legitimate).
	new := old.Clone()
	new.Remove(0)
	dF, dL, dR := Deltas(old, new, rel)
	if dF != 0 || dL != 1 || dR != 0 {
		t.Errorf("Deltas = (%d,%d,%d), want (0,1,0)", dF, dL, dR)
	}
}

// TestGeneralizationScoreExample44 reproduces the Equation 2 ranking of
// Example 4.4: rule 1 scores 2, rule 2 scores 56, rule 3 scores worst.
func TestGeneralizationScoreExample44(t *testing.T) {
	s := paperdata.Schema()
	rel := paperdata.Transactions(s)
	rs := paperdata.ExistingRules(s)
	rep := rep1(s)
	w := DefaultWeights()

	s1, gen1, dF, dL, dR := GeneralizationScore(s, rel, rs.Rule(0), nil, rep, w)
	if s1 != 2 {
		t.Errorf("rule 1 score = %v, want 2 (Example 4.4: (0+4+0+0)−(2+0+0))", s1)
	}
	if dF != 2 || dL != 0 || dR != 0 {
		t.Errorf("rule 1 deltas = (%d,%d,%d), want (2,0,0)", dF, dL, dR)
	}
	// The proposed modification is Amt ≥ 106.
	if got := gen1.Cond(1).Iv.Lo; got != 106 {
		t.Errorf("rule 1 generalization lowers amount to %d, want 106", got)
	}
	// The rule's cached capture set gives the same score as evaluating it.
	s2, _, _, _, dR2 := GeneralizationScore(s, rel, rs.Rule(1), rs.Rule(1).Captures(rel), rep, w)
	if dR2 != -1 {
		t.Errorf("rule 2 ΔR = %d, want -1", dR2)
	}
	if s2 != 56 {
		t.Errorf("rule 2 score = %v, want 56 (Example 4.4: (53+4+0+0)−(2+0−1))", s2)
	}
	s3, _, _, _, _ := GeneralizationScore(s, rel, rs.Rule(2), nil, rep, w)
	if s3 != 162 {
		t.Errorf("rule 3 score = %v, want 162 ((163+0+0+2)−(6+0−3); paper's 168 rests on its 178 typo)", s3)
	}
	if !(s1 < s2 && s2 < s3) {
		t.Errorf("ranking violated: %v, %v, %v", s1, s2, s3)
	}
}

func TestGeneralizationScoreAlreadyCapturing(t *testing.T) {
	s := paperdata.Schema()
	rel := paperdata.Transactions(s)
	wide := rules.MustParse(s, "amount >= $1")
	score, gen, _, _, _ := GeneralizationScore(s, rel, wide, nil, rep1(s), DefaultWeights())
	if score != 0 {
		t.Errorf("score = %v, want 0 for an already-capturing rule", score)
	}
	if !gen.Equal(s, wide) {
		t.Error("generalization of a capturing rule should be unchanged")
	}
}

// TestDeltasForRuleSwapNil: swapping "no rule" for a rule (an empty set for
// a one-rule set) and back gives negated deltas.
func TestDeltasForRuleSwapNil(t *testing.T) {
	s := paperdata.Schema()
	rel := paperdata.Transactions(s)
	empty, r := rules.NewSet(), rules.NewSet(rules.MustParse(s, "amount >= $100"))
	// Pure addition: everything r captures counts.
	dF, dL, dR := Deltas(empty, r, rel)
	if dF != 3 || dR != -2 || dL != 0 {
		t.Errorf("add deltas = (%d,%d,%d), want (3,0,-2)", dF, dL, dR)
	}
	// Pure removal: signs flip.
	dF2, dL2, dR2 := Deltas(r, empty, rel)
	if dF2 != -dF || dL2 != -dL || dR2 != -dR {
		t.Error("removal deltas are not the negation of addition deltas")
	}
}

func TestSplitBenefit(t *testing.T) {
	s := paperdata.Schema()
	rel := paperdata.Transactions(s)
	paperdata.LegitimateFollowUp(rel)
	w := DefaultWeights()
	removed := bitset.New(rel.Len())
	removed.Add(2) // legitimate
	removed.Add(0) // fraud
	removed.Add(8) // unlabeled
	if got := SplitBenefit(rel, removed, nil, w); got != -1+1+1 {
		t.Errorf("SplitBenefit = %v, want 1", got)
	}
	// A transaction still covered by another rule contributes nothing.
	others := bitset.New(rel.Len())
	others.Add(0)
	if got := SplitBenefit(rel, removed, others, w); got != 2 {
		t.Errorf("SplitBenefit with coverage = %v, want 2", got)
	}
}

func TestModKindString(t *testing.T) {
	for k, want := range map[ModKind]string{
		CondRefine:  "condition-refinement",
		RuleSplit:   "rule-split",
		RuleAdd:     "rule-addition",
		RuleRemove:  "rule-removal",
		ModKind(99): "unknown",
	} {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", k, got, want)
		}
	}
}

func TestUnitModel(t *testing.T) {
	var m Model = UnitModel{}
	if m.ModificationCost(CondRefine, 3) != 1 || m.ModificationCost(RuleAdd, -1) != 1 {
		t.Error("UnitModel should always charge 1")
	}
}

func TestWeightedModel(t *testing.T) {
	m := NewWeightedModel()
	if m.ModificationCost(CondRefine, 0) != 1 {
		t.Error("fresh weighted model should charge 1")
	}
	m.KindWeight[RuleSplit] = 2
	m.AttrWeight[3] = 4
	if got := m.ModificationCost(RuleSplit, 3); got != 8 {
		t.Errorf("cost = %v, want 8", got)
	}
	if got := m.ModificationCost(RuleSplit, -1); got != 2 {
		t.Errorf("whole-rule cost = %v, want 2", got)
	}
}

func TestWeightedModelFeedback(t *testing.T) {
	m := NewWeightedModel()
	for i := 0; i < 3; i++ {
		m.Feedback(0, false)
	}
	if m.AttrWeight[0] <= 1 {
		t.Errorf("rejections should raise the weight, got %v", m.AttrWeight[0])
	}
	for i := 0; i < 50; i++ {
		m.Feedback(0, false)
	}
	if m.AttrWeight[0] > maxAttrWeight {
		t.Errorf("weight exceeds clamp: %v", m.AttrWeight[0])
	}
	for i := 0; i < 100; i++ {
		m.Feedback(0, true)
	}
	if m.AttrWeight[0] < minAttrWeight {
		t.Errorf("weight below clamp: %v", m.AttrWeight[0])
	}
	if math.IsNaN(m.AttrWeight[0]) {
		t.Error("weight became NaN")
	}
}

// TestDistanceMatchesGeneralizationGrowth cross-checks Equation 1 against
// the minimal generalization: for numeric attributes, the interval distance
// must equal exactly the growth of the condition when GeneralizeToCover
// extends it — the two implementations must agree on "how much wider".
func TestDistanceMatchesGeneralizationGrowth(t *testing.T) {
	s := paperdata.Schema()
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 200; trial++ {
		r := rules.NewRule(s)
		lo := int64(rng.Intn(1000))
		r.SetCond(1, rules.NumericCond(order.Interval{Lo: lo, Hi: lo + int64(rng.Intn(500))}))
		tlo := int64(rng.Intn(1200))
		target := make([]rules.Condition, s.Arity())
		for i := 0; i < s.Arity(); i++ {
			target[i] = r.Cond(i)
		}
		target[1] = rules.NumericCond(order.Interval{Lo: tlo, Hi: tlo + int64(rng.Intn(300))})

		dist := CondDistance(s.Attr(1), r.Cond(1), target[1])
		gen, _ := rules.GeneralizeToCover(s, r, target)
		growth := gen.Cond(1).Iv.Size() - r.Cond(1).Iv.Size()
		if float64(growth) != dist {
			t.Fatalf("trial %d: distance %v but growth %d", trial, dist, growth)
		}
	}
}

// TestCategoricalDistanceMatchesGeneralization: the ontological up-distance
// equals the number of BFS steps MinimalGeneralization takes.
func TestCategoricalDistanceMatchesGeneralization(t *testing.T) {
	s := paperdata.Schema()
	locAttr := s.Attr(3)
	o := locAttr.Ontology
	rng := rand.New(rand.NewSource(56))
	for trial := 0; trial < 100; trial++ {
		from := ontology.Concept(rng.Intn(o.Len()))
		to := ontology.Concept(rng.Intn(o.Len()))
		d := CondDistance(locAttr, rules.ConceptCond(from), rules.ConceptCond(to))
		g, steps := o.MinimalGeneralization(from, to)
		if float64(steps) != d {
			t.Fatalf("trial %d: distance %v but %d BFS steps", trial, d, steps)
		}
		if !o.Contains(g, to) {
			t.Fatalf("trial %d: generalization does not contain target", trial)
		}
	}
}
