package capture_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/capture"
	"repro/internal/order"
	"repro/internal/relation"
	"repro/internal/rules"
	"repro/internal/testutil"
	"repro/internal/window"
)

// checkAgainstSet asserts every cache query against the ground truth of the
// uncached rules.Set: union, per-rule captures, Captured, UnionExcept and
// CapturingRulesAt must all match what a full rescan computes.
func checkAgainstSet(t *testing.T, c *capture.Cache, rs *rules.Set, rel *relation.Relation) {
	t.Helper()
	if c.Len() != rs.Len() {
		t.Fatalf("cache tracks %d rules, set has %d", c.Len(), rs.Len())
	}
	if want := rs.Eval(rel); !c.Union().Equal(want) {
		t.Fatalf("cache union diverged from Set.Eval (%d rules)", rs.Len())
	}
	for i := 0; i < rs.Len(); i++ {
		if want := rs.Rule(i).Captures(rel); !c.RuleCaptures(i).Equal(want) {
			t.Fatalf("per-rule capture %d diverged from Rule.Captures", i)
		}
	}
	// Spot-check the per-transaction queries on a handful of indices.
	for i := 0; i < rel.Len(); i += 1 + rel.Len()/7 {
		if got, want := c.Captured(i), rs.Eval(rel).Has(i); got != want {
			t.Fatalf("Captured(%d) = %v, Set.Eval says %v", i, got, want)
		}
		got := c.CapturingRulesAt(i)
		want := rs.CapturingRulesAt(rel, i)
		if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("CapturingRulesAt(%d) = %v, want %v", i, got, want)
		}
	}
	if rs.Len() > 0 {
		skip := rs.Len() / 2
		want := rules.NewSet()
		for i, r := range rs.Rules() {
			if i != skip {
				want.Add(r)
			}
		}
		if !c.UnionExcept(skip).Equal(want.Eval(rel)) {
			t.Fatalf("UnionExcept(%d) diverged from rescan without that rule", skip)
		}
	}
}

// TestCacheDifferentialEditSequences is the tentpole's correctness harness:
// bind a cache, then apply long random edit scripts (add / replace / remove
// in arbitrary order) mirrored on the rules.Set, asserting after EVERY step
// that the incrementally-maintained state equals a from-scratch Set.Eval.
// Run under -race to prove the chunk-parallel per-rule evaluation is safe.
func TestCacheDifferentialEditSequences(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			s := testutil.RandomSchema(rng)
			rel := testutil.RandomRelation(rng, s, 30+rng.Intn(250))
			rs := testutil.RandomRuleSet(rng, s, rng.Intn(6))

			c := capture.New()
			c.Bind(rel, rs)
			checkAgainstSet(t, c, rs, rel)

			for step := 0; step < 25; step++ {
				switch op := rng.Intn(3); {
				case op == 0 || rs.Len() == 0:
					r := testutil.RandomRule(rng, s)
					rs.Add(r)
					c.RuleAdded(r)
				case op == 1:
					i := rng.Intn(rs.Len())
					r := testutil.RandomRule(rng, s)
					rs.Replace(i, r)
					c.RuleReplaced(i, r)
				default:
					i := rng.Intn(rs.Len())
					rs.Remove(i)
					c.RuleRemoved(i)
				}
				checkAgainstSet(t, c, rs, rel)
			}
		})
	}
}

// TestCacheBindingIdentity pins the binding contract: Bound is true only for
// the exact relation the cache was bound to (pointer + length), rebinding to
// a grown relation refreshes every bitset, and Invalidate unbinds.
func TestCacheBindingIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := testutil.RandomSchema(rng)
	rel := testutil.RandomRelation(rng, s, 100)
	other := testutil.RandomRelation(rng, s, 100)
	rs := testutil.RandomRuleSet(rng, s, 3)

	c := capture.New()
	if c.Bound(rel) {
		t.Fatal("fresh cache claims to be bound")
	}
	c.Bind(rel, rs)
	if !c.Bound(rel) || c.Bound(other) {
		t.Fatal("Bound must key on the exact relation instance")
	}

	// The driver's prefix pattern: same schema, longer relation. A rebind
	// must recompute captures over the new length.
	longer := testutil.RandomRelation(rng, s, 180)
	if c.Bound(longer) {
		t.Fatal("cache claims to be bound to a different, longer relation")
	}
	c.Bind(longer, rs)
	checkAgainstSet(t, c, rs, longer)

	c.Invalidate()
	if c.Bound(longer) {
		t.Fatal("Invalidate must unbind the cache")
	}
	// Mutators on an unbound cache must be harmless no-ops.
	c.RuleAdded(testutil.RandomRule(rng, s))
	c.RuleRemoved(0)
}

// TestCacheAdditionKeepsUnionIncremental checks the monotone fast path: after
// Union() has been materialized, RuleAdded must keep it current (additions
// only ever add captures) without a full rebuild producing a stale view.
func TestCacheAdditionKeepsUnionIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := testutil.RandomSchema(rng)
	rel := testutil.RandomRelation(rng, s, 200)
	rs := testutil.RandomRuleSet(rng, s, 2)

	c := capture.New()
	c.Bind(rel, rs)
	_ = c.Union() // materialize
	for i := 0; i < 10; i++ {
		r := testutil.RandomRule(rng, s)
		rs.Add(r)
		c.RuleAdded(r)
		if !c.Union().Equal(rs.Eval(rel)) {
			t.Fatalf("union stale after addition %d", i)
		}
	}
}

// TestCacheWindowTimeInvalidation: windowed rules capture by time, so a
// relation whose window-aggregate columns were re-stamped (time moved, e.g.
// the serving daemon stamped a new batch) must not count as bound — the
// cached bitsets reflect the old aggregates.
func TestCacheWindowTimeInvalidation(t *testing.T) {
	s := relation.MustSchema(
		relation.Attribute{Name: "minute", Kind: relation.Numeric,
			Domain: order.NewDomain(0, 1_000_000), Time: true},
		relation.Attribute{Name: "user", Kind: relation.Numeric,
			Domain: order.NewDomain(0, 100)},
	)
	rel := relation.New(s)
	for i := int64(0); i < 5; i++ {
		rel.MustAppend(relation.Tuple{100 + i, 1}, relation.Unlabeled, 500)
	}
	rs := rules.NewSet(rules.MustParse(s, "COUNT(user, 10m) >= 5"))

	c := capture.New()
	c.Bind(rel, rs)
	if !c.Bound(rel) {
		t.Fatal("cache not bound right after Bind")
	}
	checkAgainstSet(t, c, rs, rel)

	// Re-stamp the columns (what a serving daemon does when time advances):
	// the cache must notice and rebind on Ensure.
	rel.SetWindowColumns(window.ComputeColumns(rel, rs.WindowSpecs(nil)))
	if c.Bound(rel) {
		t.Fatal("cache still bound after window columns were re-stamped")
	}
	if rebound := c.Ensure(rel, rs); !rebound {
		t.Fatal("Ensure did not rebind after re-stamp")
	}
	checkAgainstSet(t, c, rs, rel)

	// A window-less setup is unaffected: nil stamp before and after.
	plain := rules.NewSet(rules.MustParse(s, "user >= 0"))
	rel2 := relation.New(s)
	rel2.MustAppend(relation.Tuple{1, 1}, relation.Unlabeled, 500)
	c2 := capture.New()
	c2.Bind(rel2, plain)
	if !c2.Bound(rel2) {
		t.Fatal("window-less cache must stay bound")
	}
}
