package index

import (
	"math/rand"
	"testing"

	"repro/internal/order"
	"repro/internal/relation"
	"repro/internal/rules"
	"repro/internal/window"
)

func velocitySchema() *relation.Schema {
	return relation.MustSchema(
		relation.Attribute{Name: "minute", Kind: relation.Numeric,
			Domain: order.NewDomain(0, 1_000_000), Time: true},
		relation.Attribute{Name: "user", Kind: relation.Numeric,
			Domain: order.NewDomain(0, 10_000)},
		relation.Attribute{Name: "amount", Kind: relation.Numeric,
			Domain: order.NewDomain(0, 100_000)},
	)
}

func velocityRelation(seed int64, n int) *relation.Relation {
	rng := rand.New(rand.NewSource(seed))
	s := velocitySchema()
	rel := relation.New(s)
	now := int64(0)
	for i := 0; i < n; i++ {
		now += int64(rng.Intn(4))
		user := int64(rng.Intn(12))
		if rng.Intn(10) == 0 { // burst: several rapid events for one user
			for k := 0; k < 4 && i < n; k++ {
				rel.MustAppend(relation.Tuple{now, user, int64(rng.Intn(500))},
					relation.Unlabeled, int16(rng.Intn(relation.MaxScore+1)))
				i++
			}
			continue
		}
		rel.MustAppend(relation.Tuple{now, user, int64(rng.Intn(500))},
			relation.Unlabeled, int16(rng.Intn(relation.MaxScore+1)))
	}
	return rel
}

func velocityRules(t *testing.T, s *relation.Schema) *rules.Set {
	t.Helper()
	return rules.NewSet(
		rules.MustParse(s, "COUNT(user, 10m) >= 4"),
		rules.MustParse(s, "SUM(amount, user, 1h) >= 2000 && amount >= 100"),
		rules.MustParse(s, "DISTINCT(amount, user, 30m) >= 5"),
		rules.MustParse(s, "amount >= 450"), // window-less control
		rules.MustParse(s, "COUNT(user, 5m) in [2,3] && score >= 500"),
	)
}

// TestCompiledWindowedEvalDifferential proves the compiled evaluator agrees
// with the reference rules.Set.Eval on windowed rule sets — the same
// differential contract the per-tuple paths have.
func TestCompiledWindowedEvalDifferential(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rel := velocityRelation(seed, 400)
		rs := velocityRules(t, rel.Schema())
		e := Compile(rel.Schema(), rs)
		want := rs.Eval(rel)
		if got := e.Eval(rel); !got.Equal(want) {
			t.Fatalf("seed %d: compiled Eval diverges from Set.Eval", seed)
		}
		// Per-rule and first-match paths agree with per-rule reference.
		per := e.EvalPerRule(rel)
		first := e.EvalFirstInto(rel, nil)
		for i := 0; i < rel.Len(); i++ {
			wantFirst := NoRule
			for ri := 0; ri < rs.Len(); ri++ {
				inPer := per[ri].Has(i)
				if inPer != rs.Rule(ri).MatchesAt(rel, i) {
					t.Fatalf("seed %d: rule %d tuple %d: per-rule %v, MatchesAt %v",
						seed, ri, i, inPer, !inPer)
				}
				if inPer && wantFirst == NoRule {
					wantFirst = int32(ri)
				}
			}
			if first[i] != wantFirst {
				t.Fatalf("seed %d tuple %d: EvalFirstInto %d, want %d", seed, i, first[i], wantFirst)
			}
		}
	}
}

// TestWindowedAttribution checks the margin contract on windowed checks:
// pass ⟺ margin >= 0, and a one-sided >= K check's margin is aggregate − K.
func TestWindowedAttribution(t *testing.T) {
	s := velocitySchema()
	rel := relation.New(s)
	for i := int64(0); i < 6; i++ { // 6 events in 6 minutes for user 1
		rel.MustAppend(relation.Tuple{100 + i, 1, 100}, relation.Unlabeled, 500)
	}
	rs := rules.NewSet(rules.MustParse(s, "COUNT(user, 10m) >= 4"))
	e := Compile(s, rs)

	cols := window.ComputeColumns(rel, e.WindowSpecs())
	col := cols.Column(window.Spec{Agg: window.Count, Key: 1, Val: -1, Window: 10})
	if col == nil {
		t.Fatal("spec not registered")
	}
	for i := 0; i < rel.Len(); i++ {
		ra := e.AttributeRuleAppend(0, rel, i, nil)
		var wcheck *CheckAttribution
		for k := range ra.Checks {
			if ra.Checks[k].IsWindow() {
				wcheck = &ra.Checks[k]
			}
		}
		if wcheck == nil {
			t.Fatalf("tuple %d: no window check emitted", i)
		}
		if wantMargin := col[i] - 4; wcheck.Margin != wantMargin {
			t.Errorf("tuple %d: margin %d, want aggregate-threshold %d", i, wcheck.Margin, wantMargin)
		}
		if wcheck.Pass != (wcheck.Margin >= 0) {
			t.Errorf("tuple %d: pass %v inconsistent with margin %d", i, wcheck.Pass, wcheck.Margin)
		}
		if wcheck.Pass != ra.Matched {
			t.Errorf("tuple %d: rule matched %v but window check pass %v", i, ra.Matched, wcheck.Pass)
		}
	}
	// Lazy attribution stays exact on the windowed set.
	var buf AttributionBuffer
	lazyOut := e.EvalAttributedLazyInto(rel, &buf)
	if want := rs.Eval(rel); !lazyOut.Equal(want) {
		t.Error("lazy attributed eval diverges from reference")
	}
	for i := 0; i < rel.Len(); i++ {
		if got, want := buf.Tuples[i].Flagged(), rs.Rule(0).MatchesAt(rel, i); got != want {
			t.Errorf("tuple %d: lazy flagged %v, want %v", i, got, want)
		}
	}
}

// TestWindowedEvalAfterAppend pins the cache-invalidation contract of the
// per-relation column set: evaluating, appending tuples, and evaluating
// again must recompute the aggregate columns for the grown relation rather
// than index past the stale stamp (the serving daemon's feedback relation
// does exactly this on every feedback batch).
func TestWindowedEvalAfterAppend(t *testing.T) {
	s := velocitySchema()
	rel := relation.New(s)
	for i := int64(0); i < 3; i++ {
		rel.MustAppend(relation.Tuple{100 + i, 1, 100}, relation.Unlabeled, 500)
	}
	rs := rules.NewSet(rules.MustParse(s, "COUNT(user, 10m) >= 4"))
	e := Compile(s, rs)

	if got := e.Eval(rel); got.Count() != 0 { // caches a 3-row column set
		t.Fatalf("3 events flagged %d tuples, want 0", got.Count())
	}
	rel.MustAppend(relation.Tuple{103, 1, 100}, relation.Unlabeled, 500)
	got := e.Eval(rel) // must recompute columns at length 4, not reuse 3 rows
	if got.Count() != 1 || !got.Has(3) {
		t.Fatalf("after append: flagged %d tuples (has(3)=%v), want exactly the 4th",
			got.Count(), got.Has(3))
	}
	per := e.EvalPerRule(rel)
	if !per[0].Has(3) {
		t.Fatal("per-rule eval missed the appended tuple")
	}
}

// TestWindowedIncrementalMaintenance exercises Add/Replace/Remove with
// windowed rules: the spec registry grows append-only and evaluation stays
// differentially correct after each mutation.
func TestWindowedIncrementalMaintenance(t *testing.T) {
	rel := velocityRelation(7, 300)
	s := rel.Schema()
	rs := rules.NewSet(rules.MustParse(s, "amount >= 400"))
	e := Compile(s, rs)

	check := func(stage string) {
		t.Helper()
		if got, want := e.Eval(rel), rs.Eval(rel); !got.Equal(want) {
			t.Fatalf("%s: compiled Eval diverges", stage)
		}
	}
	check("initial")

	r1 := rules.MustParse(s, "COUNT(user, 10m) >= 4")
	rs.Add(r1)
	e.Add(r1)
	check("after add windowed")
	if len(e.WindowSpecs()) != 1 {
		t.Fatalf("specs = %v, want 1", e.WindowSpecs())
	}

	r2 := rules.MustParse(s, "SUM(amount, user, 1h) >= 2000")
	rs.Replace(1, r2)
	e.Replace(1, r2)
	check("after replace")
	if len(e.WindowSpecs()) != 2 {
		t.Fatalf("specs after replace = %v, want 2 (append-only)", e.WindowSpecs())
	}

	rs.Remove(1)
	e.Remove(1)
	check("after remove")
	if len(e.WindowSpecs()) != 2 {
		t.Fatalf("specs after remove = %v, want 2 (append-only)", e.WindowSpecs())
	}
}
