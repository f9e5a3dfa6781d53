package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/cluster"
	"repro/internal/cost"
	"repro/internal/order"
	"repro/internal/relation"
	"repro/internal/rules"
	"repro/internal/testutil"
	"repro/internal/trace"
	"repro/internal/window"
)

// exhaustiveRank is the reference Top-k(f(C)): score every rule with a full
// scan, stable-sort by score, keep the first k. rankRules must return
// exactly this.
func exhaustiveRank(sess *Session, rel *relation.Relation, rep cluster.Representative) []rankedRule {
	w := sess.opts.weights()
	var all []rankedRule
	for i, r := range sess.ruleSet.Rules() {
		sc, _, dF, dL, dR := cost.GeneralizationScore(rel.Schema(), rel, r, nil, rep.Conds, w)
		all = append(all, rankedRule{rule: r, index: i, score: sc, dF: dF, dL: dL, dR: dR})
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].score < all[j].score })
	if k := sess.opts.topK(); len(all) > k {
		all = all[:k]
	}
	return all
}

// rankFixture draws a schema with a time attribute, a relation with mixed
// labels, and a rule set containing windowed rules and exact duplicates
// (equal scores, so the index tie-break decides), plus a representative.
func rankFixture(rng *rand.Rand) (*relation.Relation, *rules.Set, cluster.Representative) {
	base := testutil.RandomSchema(rng)
	attrs := []relation.Attribute{{Name: "minute", Kind: relation.Numeric,
		Domain: order.NewDomain(0, 240), Time: true}}
	for i := 0; i < base.Arity(); i++ {
		attrs = append(attrs, base.Attr(i))
	}
	s := relation.MustSchema(attrs...)
	rel := testutil.RandomRelation(rng, s, 20+rng.Intn(300))
	rs := testutil.RandomRuleSet(rng, s, 1+rng.Intn(10))
	for n := rng.Intn(3); n > 0; n-- {
		r := testutil.RandomRule(rng, s)
		r.AddWindow(rules.WindowCond{
			Spec: window.Spec{Agg: window.Count, Key: 1 + rng.Intn(base.Arity()), Val: -1, Window: 1 + rng.Int63n(60)},
			Iv:   order.Interval{Lo: 1 + rng.Int63n(3), Hi: math.MaxInt64},
		})
		rs.Add(r)
	}
	for n := rng.Intn(4); n > 0; n-- {
		rs.Add(rs.Rule(rng.Intn(rs.Len())).Clone())
	}
	members := make([]int, 1+rng.Intn(3))
	for i := range members {
		members[i] = rng.Intn(rel.Len())
	}
	return rel, rs, cluster.MakeRepresentative(rel, members)
}

// TestRankRulesMatchesExhaustiveOracle: the bound-and-scan top-k returns
// the same rules, in the same order, with the same score and deltas as the
// exhaustive ranking, for non-negative weights of every shape; the lower
// bound never exceeds the exact score; pruning does happen; and a negative
// γ, under which the bound does not hold, prunes nothing.
func TestRankRulesMatchesExhaustiveOracle(t *testing.T) {
	levels := []float64{0, 0.1, 0.25, 0.3, 1, 2, 10}
	var scannedAll, prunedAll int64
	for seed := int64(0); seed < 1000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rel, rs, rep := rankFixture(rng)
		w := cost.Weights{
			Alpha: levels[rng.Intn(len(levels))],
			Beta:  levels[rng.Intn(len(levels))],
			Gamma: levels[rng.Intn(len(levels))],
		}
		negative := seed%8 == 0
		if negative {
			w.Gamma = -0.5
		}
		var scanned, pruned int64
		tr := trace.New(trace.Options{Capacity: 64, OnEnd: func(r trace.Record) {
			if r.Name != "generalize.rank" {
				return
			}
			for _, a := range r.Attrs[:r.NAttrs] {
				switch a.Key {
				case "scanned":
					scanned = a.Value().(int64)
				case "pruned":
					pruned = a.Value().(int64)
				}
			}
		}})
		sess := NewSession(rs, &stubExpert{}, Options{Weights: w, WeightsSet: true, TopK: 1 + rng.Intn(4), Tracer: tr})
		s := rel.Schema()

		got, want := sess.rankRules(rel, s, rep), exhaustiveRank(sess, rel, rep)
		if len(got) != len(want) {
			t.Fatalf("seed %d: ranked %d rules, oracle %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d (weights %+v): rank %d = %+v, oracle %+v", seed, w, i, got[i], want[i])
			}
		}
		if scanned+pruned != int64(sess.ruleSet.Len()) {
			t.Errorf("seed %d: scanned %d + pruned %d, %d rules", seed, scanned, pruned, sess.ruleSet.Len())
		}
		if negative && pruned != 0 {
			t.Errorf("seed %d: pruned %d candidates under γ < 0, where the bound does not hold", seed, pruned)
		}
		scannedAll, prunedAll = scannedAll+scanned, prunedAll+pruned

		frauds := rel.Indices(relation.Fraud)
		for _, r := range sess.ruleSet.Rules() {
			bound := cost.GeneralizationBound(s, rel, r, r.Captures(rel), frauds, rep.Conds, w)
			exact, _, _, _, _ := cost.GeneralizationScore(s, rel, r, nil, rep.Conds, w)
			if bound > exact {
				t.Errorf("seed %d (weights %+v): bound %v above the exact score %v of %s",
					seed, w, bound, exact, r.Format(s))
			}
		}
	}
	if prunedAll == 0 {
		t.Error("no candidate was ever pruned: the fixtures do not exercise the bound")
	}
	t.Logf("scanned %d candidates, pruned %d", scannedAll, prunedAll)
}
