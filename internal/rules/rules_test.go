package rules

import (
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/ontology"
	"repro/internal/order"
	"repro/internal/relation"
)

// elems lists the members of s in increasing order.
func elems(s *bitset.Set) []int {
	var out []int
	s.ForEach(func(i int) { out = append(out, i) })
	return out
}

// fixture builds the paper's Figure 1 / Figure 2 setting: the type and
// location ontologies, the four-attribute schema, the existing rule set and
// the new-day transaction relation.
type fixture struct {
	schema *relation.Schema
	rel    *relation.Relation
	rules  *Set
}

func locationOntology() *ontology.Ontology {
	return ontology.NewBuilder("location").
		Add("World").
		Add("Gas Station", "World").
		Add("Retail", "World").
		Add("Gas Station A", "Gas Station").
		Add("Gas Station B", "Gas Station").
		Add("Online Store", "Retail").
		Add("Supermarket", "Retail").
		MustBuild()
}

func paperSchema() *relation.Schema {
	return relation.MustSchema(
		relation.Attribute{Name: "time", Kind: relation.Numeric,
			Domain: order.NewDomain(0, 1439), Format: order.FormatTimeOfDay},
		relation.Attribute{Name: "amount", Kind: relation.Numeric,
			Domain: order.NewDomain(0, 100000), Format: order.FormatMoney},
		relation.Attribute{Name: "type", Kind: relation.Categorical,
			Ontology: ontology.PaperTypeOntology()},
		relation.Attribute{Name: "location", Kind: relation.Categorical,
			Ontology: locationOntology()},
	)
}

func hhmm(h, m int64) int64 { return h*60 + m }

// newFixture loads Figure 2's transactions and Figure 1's rules.
func newFixture(t *testing.T) *fixture {
	t.Helper()
	s := paperSchema()
	typeOnt := s.Attr(2).Ontology
	locOnt := s.Attr(3).Ontology
	ty := func(n string) int64 { return int64(typeOnt.MustLookup(n)) }
	loc := func(n string) int64 { return int64(locOnt.MustLookup(n)) }

	rel := relation.New(s)
	add := func(h, m, amt int64, typ, location string, lab relation.Label) {
		rel.MustAppend(relation.Tuple{hhmm(h, m), amt, ty(typ), loc(location)}, lab, 500)
	}
	// The ten transactions of Figure 2, in order.
	add(18, 2, 107, "Online, no CCV", "Online Store", relation.Fraud)
	add(18, 3, 106, "Online, no CCV", "Online Store", relation.Fraud)
	add(18, 4, 112, "Online, with CCV", "Online Store", relation.Unlabeled)
	add(19, 8, 114, "Online, no CCV", "Online Store", relation.Fraud)
	add(19, 10, 117, "Online, with CCV", "Online Store", relation.Unlabeled)
	add(20, 53, 46, "Offline, without PIN", "Gas Station B", relation.Fraud)
	add(20, 54, 48, "Offline, without PIN", "Gas Station B", relation.Fraud)
	add(20, 55, 44, "Offline, without PIN", "Gas Station B", relation.Fraud)
	add(20, 58, 47, "Offline, with PIN", "Supermarket", relation.Unlabeled)
	add(21, 1, 49, "Offline, with PIN", "Gas Station A", relation.Unlabeled)

	// Figure 1's existing rules: attacks in the first and last few minutes
	// of 6pm over $110 at an online store, and a gas-station pattern:
	// 1) Time ∈ [18:00,18:05] ∧ Amt ≥ 110
	// 2) Time ∈ [18:55,19:00] ∧ Amt ≥ 110
	// 3) Time ∈ [20:45,21:15] ∧ Amt ≥ 40 ∧ Location = Gas Station A
	// (Rule 2's window must end before 19:08 for Example 2.2's claim that it
	// captures nothing; Example 4.4's distance of 53 = |18:55 − 18:02| pins
	// its start.)
	rs := NewSet(
		MustParse(s, "time in [18:00,18:05] && amount >= $110"),
		MustParse(s, "time in [18:55,19:00] && amount >= $110"),
		MustParse(s, `time in [20:45,21:15] && amount >= $40 && location = "Gas Station A"`),
	)
	return &fixture{schema: s, rel: rel, rules: rs}
}

// TestPaperExample22 checks Example 2.2: rule 1 captures only the 3rd tuple,
// rule 2 captures nothing, rule 3 captures only the 10th tuple, and none of
// the fraudulent transactions are captured by the existing rules.
func TestPaperExample22(t *testing.T) {
	f := newFixture(t)
	r1 := f.rules.Rule(0).Captures(f.rel)
	if got := elems(r1); len(got) != 1 || got[0] != 2 {
		t.Errorf("rule 1 captures %v, want [2] (the 3rd tuple)", got)
	}
	r3 := f.rules.Rule(2).Captures(f.rel)
	if got := elems(r3); len(got) != 1 || got[0] != 9 {
		t.Errorf("rule 3 captures %v, want [9] (the 10th tuple)", got)
	}
	// No fraudulent transaction is captured by the existing rules.
	all := f.rules.Eval(f.rel)
	for _, i := range f.rel.Indices(relation.Fraud) {
		if all.Has(i) {
			t.Errorf("existing rules capture fraudulent tuple %d, but Example 2.2 says none are captured", i)
		}
	}
}

func TestRuleMatchesConditionKinds(t *testing.T) {
	f := newFixture(t)
	s := f.schema
	gs := MustParse(s, `location <= "Gas Station"`)
	for i := 0; i < f.rel.Len(); i++ {
		want := i >= 5 && i != 8 // tuples at Gas Station A/B
		if got := gs.Matches(s, f.rel.Tuple(i)); got != want {
			t.Errorf("tuple %d: location <= Gas Station = %v, want %v", i, got, want)
		}
	}
}

func TestTrivialAndEmptyRules(t *testing.T) {
	f := newFixture(t)
	trivial := NewRule(f.schema)
	if got := trivial.Captures(f.rel).Count(); got != f.rel.Len() {
		t.Errorf("trivial rule captures %d, want all %d", got, f.rel.Len())
	}
	if trivial.IsEmpty(f.schema) {
		t.Error("trivial rule reported empty")
	}
	empty := trivial.Clone().SetCond(0, NumericCond(order.Empty()))
	if !empty.IsEmpty(f.schema) {
		t.Error("rule with empty condition not reported empty")
	}
	if got := empty.Captures(f.rel).Count(); got != 0 {
		t.Errorf("empty rule captures %d, want 0", got)
	}
}

func TestRuleCloneIndependence(t *testing.T) {
	f := newFixture(t)
	r := f.rules.Rule(0)
	c := r.Clone()
	c.SetCond(1, NumericCond(order.Point(5)))
	if r.Cond(1).Iv.Equal(order.Point(5)) {
		t.Error("Clone shares condition storage")
	}
	if !r.Equal(f.schema, f.rules.Rule(0)) {
		t.Error("original rule mutated")
	}
}

func TestRuleContains(t *testing.T) {
	f := newFixture(t)
	s := f.schema
	wide := MustParse(s, `time in [18:00,19:00] && location <= "Gas Station"`)
	narrow := MustParse(s, `time in [18:10,18:20] && location = "Gas Station A"`)
	if !wide.Contains(s, narrow) {
		t.Error("wide should contain narrow")
	}
	if narrow.Contains(s, wide) {
		t.Error("narrow should not contain wide")
	}
	if !NewRule(s).Contains(s, wide) {
		t.Error("trivial rule should contain everything")
	}
}

func TestSetOperations(t *testing.T) {
	f := newFixture(t)
	rs := f.rules.Clone()
	if rs.Len() != 3 {
		t.Fatalf("Len = %d", rs.Len())
	}
	n := NewRule(f.schema)
	idx := rs.Add(n)
	if idx != 3 || rs.Len() != 4 || rs.Rule(3) != n {
		t.Error("Add wrong")
	}
	rs.Remove(0)
	if rs.Len() != 3 || rs.Rule(2) != n {
		t.Error("Remove wrong")
	}
	r2 := NewRule(f.schema).SetCond(1, NumericCond(order.Point(1)))
	rs.Replace(0, r2)
	if rs.Rule(0) != r2 {
		t.Error("Replace wrong")
	}
	if len(rs.Rules()) != rs.Len() {
		t.Error("Rules() length mismatch")
	}
}

// TestSetIndexOf pins the identity-based rule tracking that replaced the
// stale positional indices: IndexOf matches by pointer (not by Equal), its
// result shifts with removals, and a removed or equal-but-distinct rule
// resolves to -1.
func TestSetIndexOf(t *testing.T) {
	s := paperSchema()
	a := MustParse(s, "amount >= $110")
	b := MustParse(s, "time in [18:00,18:05]")
	c := MustParse(s, "amount >= $50")
	rs := NewSet(a, b, c)

	for i, r := range []*Rule{a, b, c} {
		if got := rs.IndexOf(r); got != i {
			t.Errorf("IndexOf(rule %d) = %d", i, got)
		}
	}
	// Identity, not structural equality: an equal clone is a different rule.
	if got := rs.IndexOf(a.Clone()); got != -1 {
		t.Errorf("IndexOf(clone) = %d, want -1", got)
	}
	// Removal shifts later rules and unmaps the removed one.
	rs.Remove(0)
	if got := rs.IndexOf(a); got != -1 {
		t.Errorf("IndexOf(removed) = %d, want -1", got)
	}
	if rs.IndexOf(b) != 0 || rs.IndexOf(c) != 1 {
		t.Errorf("indices after removal = %d, %d; want 0, 1", rs.IndexOf(b), rs.IndexOf(c))
	}
	// Nil and empty-set lookups are well-defined.
	if got := rs.IndexOf(nil); got != -1 {
		t.Errorf("IndexOf(nil) = %d, want -1", got)
	}
	if got := NewSet().IndexOf(a); got != -1 {
		t.Errorf("empty set IndexOf = %d, want -1", got)
	}
}

func TestSetCloneDeep(t *testing.T) {
	f := newFixture(t)
	c := f.rules.Clone()
	c.Rule(0).SetCond(1, NumericCond(order.Point(1)))
	if f.rules.Rule(0).Cond(1).Iv.Equal(order.Point(1)) {
		t.Error("Set.Clone is shallow")
	}
}

func TestSetEvalIsUnionOfCaptures(t *testing.T) {
	f := newFixture(t)
	union := f.rules.Rule(0).Captures(f.rel)
	for i := 1; i < f.rules.Len(); i++ {
		union.UnionWith(f.rules.Rule(i).Captures(f.rel))
	}
	if !f.rules.Eval(f.rel).Equal(union) {
		t.Error("Eval != union of per-rule captures")
	}
}

func TestCapturingRules(t *testing.T) {
	f := newFixture(t)
	// Tuple 2 (18:04, $112) is captured by rule 0 only.
	got := f.rules.CapturingRules(f.schema, f.rel.Tuple(2))
	if len(got) != 1 || got[0] != 0 {
		t.Errorf("CapturingRules(tuple 2) = %v, want [0]", got)
	}
	// An uncaptured tuple yields nothing.
	if got := f.rules.CapturingRules(f.schema, f.rel.Tuple(0)); got != nil {
		t.Errorf("CapturingRules(tuple 0) = %v, want none", got)
	}
	// Overlapping rules both appear.
	rs := f.rules.Clone()
	rs.Add(MustParse(f.schema, "amount >= $100"))
	got = rs.CapturingRules(f.schema, f.rel.Tuple(2))
	if len(got) != 2 {
		t.Errorf("CapturingRules with overlap = %v, want two rules", got)
	}
}

// TestRuleEvalMatchesBruteForce is a property test: rule evaluation via
// Captures agrees with direct per-tuple Matches for random rules over random
// tuples.
func TestRuleEvalMatchesBruteForce(t *testing.T) {
	f := newFixture(t)
	s := f.schema
	rng := rand.New(rand.NewSource(42))
	rel := relation.New(s)
	typeOnt, locOnt := s.Attr(2).Ontology, s.Attr(3).Ontology
	tLeaves, lLeaves := typeOnt.Leaves(), locOnt.Leaves()
	for i := 0; i < 300; i++ {
		rel.MustAppend(relation.Tuple{
			int64(rng.Intn(1440)),
			int64(rng.Intn(1000)),
			int64(tLeaves[rng.Intn(len(tLeaves))]),
			int64(lLeaves[rng.Intn(len(lLeaves))]),
		}, relation.Label(rng.Intn(3)), int16(rng.Intn(1001)))
	}
	for trial := 0; trial < 100; trial++ {
		r := NewRule(s)
		if rng.Intn(2) == 0 {
			lo := int64(rng.Intn(1440))
			r.SetCond(0, NumericCond(order.Interval{Lo: lo, Hi: lo + int64(rng.Intn(200))}))
		}
		if rng.Intn(2) == 0 {
			r.SetCond(1, NumericCond(order.Interval{Lo: int64(rng.Intn(500)), Hi: 100000}))
		}
		if rng.Intn(2) == 0 {
			r.SetCond(2, ConceptCond(ontology.Concept(rng.Intn(typeOnt.Len()))))
		}
		if rng.Intn(2) == 0 {
			r.SetCond(3, ConceptCond(ontology.Concept(rng.Intn(locOnt.Len()))))
		}
		cap := r.Captures(rel)
		for i := 0; i < rel.Len(); i++ {
			if cap.Has(i) != r.Matches(s, rel.Tuple(i)) {
				t.Fatalf("trial %d: Captures and Matches disagree on tuple %d", trial, i)
			}
		}
	}
}
