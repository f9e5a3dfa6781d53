package index_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/index"
	"repro/internal/order"
	"repro/internal/relation"
	"repro/internal/rules"
	"repro/internal/testutil"
)

// TestEvalAttributedDifferential is the equivalence proof of the attribution
// oracle: across randomized schemas, relations and rule sets, the lazy
// batch path's union bitset must equal Set.Eval's, AttributeTuple's
// matched-rule lists must equal the per-rule capture bitsets of EvalPerRule,
// EvalFirstInto must report the lowest matching rule index, and every check
// must satisfy the margin invariant: Pass ⇔ Margin >= 0 and agree with the
// raw condition. TestEvalAttributedLazyDifferential then holds the lazy
// path to AttributeTuple.
func TestEvalAttributedDifferential(t *testing.T) {
	for seed := int64(0); seed < 120; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(7000 + seed))
			s := testutil.RandomSchema(rng)
			rel := testutil.RandomRelation(rng, s, rng.Intn(250))
			rs := testutil.RandomRuleSet(rng, s, rng.Intn(8))

			ev := index.Compile(s, rs)
			want := rs.Eval(rel)
			var buf index.AttributionBuffer
			if got := ev.EvalAttributedLazyInto(rel, &buf); !got.Equal(want) {
				t.Fatalf("EvalAttributedLazyInto union disagrees with Set.Eval\nrules:\n%s", rs.Format(s))
			}
			per := ev.EvalPerRule(rel)
			first := ev.EvalFirstInto(rel, nil)
			if len(first) != rel.Len() {
				t.Fatalf("EvalFirstInto returned %d entries for %d tuples", len(first), rel.Len())
			}
			for i := 0; i < rel.Len(); i++ {
				// Matched rule indices == per-rule capture bitsets.
				var wantMatched []int
				wantFirst := index.NoRule
				for ri := 0; ri < rs.Len(); ri++ {
					if per[ri].Has(i) {
						wantMatched = append(wantMatched, ri)
						if wantFirst == index.NoRule {
							wantFirst = int32(ri)
						}
					}
				}
				if first[i] != wantFirst {
					t.Fatalf("tuple %d: EvalFirstInto = %d, want %d", i, first[i], wantFirst)
				}
				a := ev.AttributeTuple(rel, i)
				if len(a.Matched) != len(wantMatched) {
					t.Fatalf("tuple %d: matched %v, want %v", i, a.Matched, wantMatched)
				}
				for k := range wantMatched {
					if a.Matched[k] != wantMatched[k] {
						t.Fatalf("tuple %d: matched %v, want %v", i, a.Matched, wantMatched)
					}
				}
				if a.Flagged() != want.Has(i) {
					t.Fatalf("tuple %d: Flagged = %v, union has %v", i, a.Flagged(), want.Has(i))
				}
				if len(a.Rules) != rs.Len() {
					t.Fatalf("tuple %d: %d rule attributions for %d rules", i, len(a.Rules), rs.Len())
				}
				for ri, ra := range a.Rules {
					if ra.Rule != ri {
						t.Fatalf("tuple %d: attribution %d claims rule %d", i, ri, ra.Rule)
					}
					if ra.Matched != per[ri].Has(i) {
						t.Fatalf("tuple %d rule %d: Matched = %v, capture bit %v\nrule: %s",
							i, ri, ra.Matched, per[ri].Has(i), rs.Rule(ri).Format(s))
					}
					// Matched must be the conjunction of the checks, and every
					// check must satisfy the margin sign invariant.
					conj := !ra.Empty
					lastAttr := -2
					for _, c := range ra.Checks {
						if c.Pass != (c.Margin >= 0) {
							t.Fatalf("tuple %d rule %d attr %d: Pass=%v but Margin=%d",
								i, ri, c.Attr, c.Pass, c.Margin)
						}
						if !c.Pass {
							conj = false
						}
						if c.Attr != index.ScoreAttr && c.Attr <= lastAttr {
							t.Fatalf("tuple %d rule %d: checks not in ascending attr order", i, ri)
						}
						if c.Attr != index.ScoreAttr {
							lastAttr = c.Attr
						}
						// Each check must agree with the raw condition.
						if c.Attr != index.ScoreAttr {
							attr := s.Attr(c.Attr)
							if adm := rs.Rule(ri).Cond(c.Attr).Admits(attr, rel.Tuple(i)[c.Attr]); adm != c.Pass {
								t.Fatalf("tuple %d rule %d attr %d: Pass=%v but Condition.Admits=%v",
									i, ri, c.Attr, c.Pass, adm)
							}
						} else if wantPass := rel.Score(i) >= rs.Rule(ri).MinScore(); wantPass != c.Pass {
							t.Fatalf("tuple %d rule %d score check: Pass=%v, want %v", i, ri, c.Pass, wantPass)
						}
					}
					if conj != ra.Matched {
						t.Fatalf("tuple %d rule %d: Matched=%v but checks conjoin to %v", i, ri, ra.Matched, conj)
					}
				}
			}
		})
	}
}

// TestAttributionNumericMargins pins the exact numeric margin arithmetic on
// a hand-built instance (the randomized test only checks the sign
// invariant).
func TestAttributionNumericMargins(t *testing.T) {
	s := relation.MustSchema(relation.Attribute{
		Name:   "a",
		Kind:   relation.Numeric,
		Domain: order.NewDomain(0, 100),
	})
	rel := relation.New(s)
	// Attribute 0 domain is [0,100]; the rule condition below is [10, 20].
	for _, v := range []int64{9, 10, 14, 20, 30} {
		rel.MustAppend(relation.Tuple{v}, relation.Unlabeled, 0)
	}
	rs := rules.NewSet(rules.MustParse(s, "a in [10,20]"))
	ev := index.Compile(s, rs)
	want := []struct {
		pass   bool
		margin int64
	}{
		{false, -1}, // 9: one below lo
		{true, 0},   // 10: on the boundary
		{true, 4},   // 14: 4 from lo, 6 from hi -> 4
		{true, 0},   // 20: on the boundary
		{false, -10},
	}
	for i, w := range want {
		c := ev.AttributeTuple(rel, i).Rules[0].Checks[0]
		if c.Pass != w.pass || c.Margin != w.margin {
			t.Fatalf("tuple %d: got pass=%v margin=%d, want pass=%v margin=%d",
				i, c.Pass, c.Margin, w.pass, w.margin)
		}
	}
}
