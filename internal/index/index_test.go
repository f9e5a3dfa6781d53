package index

import (
	"math/rand"
	"testing"

	"repro/internal/datagen"
	"repro/internal/order"
	"repro/internal/paperdata"
	"repro/internal/relation"
	"repro/internal/rules"
)

// TestEvalMatchesReference: the compiled evaluator agrees with the
// reference Set.Eval on generated FI datasets and rule sets.
func TestEvalMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		ds := datagen.Generate(datagen.Config{Size: 3000, Seed: seed})
		rs := datagen.InitialRules(ds, 25, seed)
		want := rs.Eval(ds.Rel)
		for _, workers := range []int{0, 1, 3} {
			e := Compile(ds.Schema, rs)
			e.Workers = workers
			got := e.Eval(ds.Rel)
			if !got.Equal(want) {
				t.Fatalf("seed %d workers %d: compiled eval differs from reference", seed, workers)
			}
		}
	}
}

// TestEvalScoreThresholds: compiled rules honor minimum-score thresholds.
func TestEvalScoreThresholds(t *testing.T) {
	ds := datagen.Generate(datagen.Config{Size: 1000, Seed: 5})
	rs := rules.NewSet(rules.NewRule(ds.Schema).SetMinScore(800))
	want := rs.Eval(ds.Rel)
	got := Compile(ds.Schema, rs).Eval(ds.Rel)
	if !got.Equal(want) {
		t.Fatal("score-threshold evaluation differs from reference")
	}
	if got.Count() == 0 || got.Count() == ds.Rel.Len() {
		t.Fatalf("degenerate capture count %d", got.Count())
	}
}

// TestEvalEmptyRule: rules with empty conditions never match.
func TestEvalEmptyRule(t *testing.T) {
	s := paperdata.Schema()
	rel := paperdata.Transactions(s)
	empty := rules.NewRule(s).SetCond(0, rules.NumericCond(order.Empty()))
	e := Compile(s, rules.NewSet(empty))
	if got := e.Eval(rel).Count(); got != 0 {
		t.Errorf("empty rule captured %d", got)
	}
}

// TestEvalTrivialRule: the trivial rule captures everything.
func TestEvalTrivialRule(t *testing.T) {
	s := paperdata.Schema()
	rel := paperdata.Transactions(s)
	e := Compile(s, rules.NewSet(rules.NewRule(s)))
	if got := e.Eval(rel).Count(); got != rel.Len() {
		t.Errorf("trivial rule captured %d of %d", got, rel.Len())
	}
	if len(e.rules) != 1 {
		t.Errorf("compiled %d rules, want 1", len(e.rules))
	}
}

// TestMatchesPointQuery: each transaction's first-match attribution agrees
// with the reference per-transaction check.
func TestMatchesPointQuery(t *testing.T) {
	ds := datagen.Generate(datagen.Config{Size: 800, Seed: 9})
	rs := datagen.InitialRules(ds, 10, 9)
	first := Compile(ds.Schema, rs).EvalFirstInto(ds.Rel, nil)
	for i := 0; i < ds.Rel.Len(); i++ {
		want := NoRule
		if capturing := rs.CapturingRulesAt(ds.Rel, i); len(capturing) > 0 {
			want = int32(capturing[0])
		}
		if first[i] != want {
			t.Fatalf("first match of %d = %d, want %d", i, first[i], want)
		}
	}
}

// TestSnapshotSemantics: changes to the rule set after Compile are not
// reflected.
func TestSnapshotSemantics(t *testing.T) {
	s := paperdata.Schema()
	rel := paperdata.Transactions(s)
	rs := rules.NewSet(rules.MustParse(s, "amount >= $100"))
	e := Compile(s, rs)
	before := e.Eval(rel).Count()
	rs.Add(rules.NewRule(s)) // would capture everything
	if got := e.Eval(rel).Count(); got != before {
		t.Error("evaluator reflected post-compile rule set changes")
	}
}

// TestEvalRandomizedAgainstBruteForce stresses odd sizes and chunk edges.
func TestEvalRandomizedAgainstBruteForce(t *testing.T) {
	s := paperdata.Schema()
	rng := rand.New(rand.NewSource(77))
	typeLeaves := s.Attr(2).Ontology.Leaves()
	locLeaves := s.Attr(3).Ontology.Leaves()
	for trial := 0; trial < 10; trial++ {
		rel := relation.New(s)
		n := 1 + rng.Intn(300) // deliberately not a multiple of 64
		for i := 0; i < n; i++ {
			rel.MustAppend(relation.Tuple{
				int64(rng.Intn(1440)), int64(rng.Intn(1000)),
				int64(typeLeaves[rng.Intn(len(typeLeaves))]),
				int64(locLeaves[rng.Intn(len(locLeaves))]),
			}, relation.Unlabeled, int16(rng.Intn(1001)))
		}
		rs := rules.NewSet()
		for k := 0; k < 1+rng.Intn(5); k++ {
			r := rules.NewRule(s)
			lo := int64(rng.Intn(1440))
			r.SetCond(0, rules.NumericCond(order.Interval{Lo: lo, Hi: lo + int64(rng.Intn(300))}))
			if rng.Intn(2) == 0 {
				r.SetCond(2, rules.ConceptCond(typeLeaves[rng.Intn(len(typeLeaves))]))
			}
			if rng.Intn(3) == 0 {
				r.SetMinScore(int16(rng.Intn(1001)))
			}
			rs.Add(r)
		}
		want := rs.Eval(rel)
		got := Compile(s, rs).Eval(rel)
		if !got.Equal(want) {
			t.Fatalf("trial %d: mismatch", trial)
		}
	}
}
