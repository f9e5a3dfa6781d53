package index_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/index"
	"repro/internal/relation"
	"repro/internal/testutil"
)

// checkLazy holds a lazy evaluation — union gotSet, attributions in buf — to
// the eager oracle AttributeTuple: identical union bitset, Matched lists and
// Matched/Empty flags, identical check breakdowns for every rule that fired,
// nil Checks (never stale data) for rules that did not, and
// AttributeRuleAppend re-deriving exactly the oracle's breakdown for those on
// demand — margins, order and Matched identical — through both a nil and a
// caller-scratch dst. where prefixes every failure.
func checkLazy(t *testing.T, ev *index.Evaluator, rel *relation.Relation, gotSet *bitset.Set, buf *index.AttributionBuffer, where string) {
	t.Helper()
	if len(buf.Tuples) != rel.Len() {
		t.Fatalf("%s: %d buffered attributions for %d tuples", where, len(buf.Tuples), rel.Len())
	}
	scratch := make([]index.CheckAttribution, 0, ev.MaxRuleChecks())
	for i := 0; i < rel.Len(); i++ {
		want, got := ev.AttributeTuple(rel, i), buf.Tuples[i]
		if gotSet.Has(i) != want.Flagged() {
			t.Fatalf("%s tuple %d: lazy union has %v, oracle flagged %v", where, i, gotSet.Has(i), want.Flagged())
		}
		if fmt.Sprint(got.Matched) != fmt.Sprint(want.Matched) {
			t.Fatalf("%s tuple %d: lazy matched %v, oracle %v", where, i, got.Matched, want.Matched)
		}
		if len(got.Rules) != len(want.Rules) {
			t.Fatalf("%s tuple %d: %d lazy rules, %d oracle", where, i, len(got.Rules), len(want.Rules))
		}
		for ri, er := range want.Rules {
			lr := got.Rules[ri]
			if lr.Rule != er.Rule || lr.Matched != er.Matched || lr.Empty != er.Empty {
				t.Fatalf("%s tuple %d rule %d: lazy %+v, oracle %+v", where, i, ri, lr, er)
			}
			if er.Matched {
				if fmt.Sprint(lr.Checks) != fmt.Sprint(er.Checks) {
					t.Fatalf("%s tuple %d rule %d checks:\n  lazy: %v\noracle: %v", where, i, ri, lr.Checks, er.Checks)
				}
				continue
			}
			if lr.Checks != nil {
				t.Fatalf("%s tuple %d rule %d: non-matched lazy rule carries checks %v", where, i, ri, lr.Checks)
			}
			if re := ev.AttributeRuleAppend(ri, rel, i, nil); fmt.Sprint(re) != fmt.Sprint(er) {
				t.Fatalf("%s tuple %d rule %d: AttributeRuleAppend(nil) %v, oracle %v", where, i, ri, re, er)
			}
			if re := ev.AttributeRuleAppend(ri, rel, i, scratch[:0]); fmt.Sprint(re) != fmt.Sprint(er) {
				t.Fatalf("%s tuple %d rule %d: AttributeRuleAppend %v, oracle %v", where, i, ri, re, er)
			}
		}
	}
}

// TestEvalAttributedLazyIntoReuse reuses ONE AttributionBuffer across every
// seed, proving that a dirty buffer carrying a previous schema, relation and
// rule set's arenas never leaks into the next result.
func TestEvalAttributedLazyIntoReuse(t *testing.T) {
	var buf index.AttributionBuffer // deliberately shared across all seeds
	for seed := int64(0); seed < 80; seed++ {
		rng := rand.New(rand.NewSource(9000 + seed))
		s := testutil.RandomSchema(rng)
		rel := testutil.RandomRelation(rng, s, rng.Intn(250))
		rs := testutil.RandomRuleSet(rng, s, rng.Intn(8))
		ev := index.Compile(s, rs)
		gotSet := ev.EvalAttributedLazyInto(rel, &buf)
		checkLazy(t, ev, rel, gotSet, &buf, fmt.Sprintf("seed %d", seed))
	}
}

// TestEvalAttributedLazyDifferential proves the lazy path against the
// AttributeTuple oracle (see checkLazy) across randomized instances.
func TestEvalAttributedLazyDifferential(t *testing.T) {
	for seed := int64(0); seed < 80; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(11000 + seed))
			s := testutil.RandomSchema(rng)
			rel := testutil.RandomRelation(rng, s, rng.Intn(250))
			rs := testutil.RandomRuleSet(rng, s, rng.Intn(8))
			ev := index.Compile(s, rs)
			var buf index.AttributionBuffer
			gotSet := ev.EvalAttributedLazyInto(rel, &buf)
			checkLazy(t, ev, rel, gotSet, &buf, rs.Format(s))
		})
	}
}

// TestEvalFirstIntoDifferential pins EvalFirstInto with a reused dst to a
// fresh allocation across differently-sized relations: no stale entry from a
// longer earlier relation survives.
func TestEvalFirstIntoDifferential(t *testing.T) {
	var dst []int32
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(13000 + seed))
		s := testutil.RandomSchema(rng)
		rel := testutil.RandomRelation(rng, s, rng.Intn(300))
		rs := testutil.RandomRuleSet(rng, s, rng.Intn(8))
		ev := index.Compile(s, rs)
		want := ev.EvalFirstInto(rel, nil)
		dst = ev.EvalFirstInto(rel, dst)
		if len(dst) != len(want) {
			t.Fatalf("seed %d: EvalFirstInto len %d, want %d", seed, len(dst), len(want))
		}
		for i := range want {
			if dst[i] != want[i] {
				t.Fatalf("seed %d tuple %d: reused dst %d, fresh %d", seed, i, dst[i], want[i])
			}
		}
	}
}

// TestAttributionBufferMutationReuse drives the shared buffer through
// in-place evaluator mutations (Add/Replace/Remove change the per-tuple
// check geometry) and checks every evaluation against the AttributeTuple
// oracle.
func TestAttributionBufferMutationReuse(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(15000 + seed))
		s := testutil.RandomSchema(rng)
		rel := testutil.RandomRelation(rng, s, 50+rng.Intn(100))
		rs := testutil.RandomRuleSet(rng, s, 1+rng.Intn(5))
		ev := index.Compile(s, rs)
		var buf index.AttributionBuffer
		for step := 0; step < 10; step++ {
			switch op := rng.Intn(3); {
			case op == 0 || rs.Len() == 0:
				r := testutil.RandomRule(rng, s)
				rs.Add(r)
				ev.Add(r)
			case op == 1:
				i := rng.Intn(rs.Len())
				r := testutil.RandomRule(rng, s)
				rs.Replace(i, r)
				ev.Replace(i, r)
			default:
				i := rng.Intn(rs.Len())
				rs.Remove(i)
				ev.Remove(i)
			}
			gotSet := ev.EvalAttributedLazyInto(rel, &buf)
			checkLazy(t, ev, rel, gotSet, &buf, fmt.Sprintf("seed %d step %d", seed, step))
		}
	}
}

// TestAttributionIntoAllocs pins the steady-state allocation budget of the
// buffer-backed paths: after one warm-up call, re-evaluating the same-shaped
// relation must cost only the result bitset and the chunk goroutines — no
// per-rule or per-tuple allocations (the 2.3M-allocs/op regression this
// buffer design removed).
func TestAttributionIntoAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	s := testutil.RandomSchema(rng)
	rel := testutil.RandomRelation(rng, s, 256)
	rs := testutil.RandomRuleSet(rng, s, 6)
	ev := index.Compile(s, rs)
	ev.Workers = 2

	var buf index.AttributionBuffer
	ev.EvalAttributedLazyInto(rel, &buf) // warm the arenas
	// Budget: bitset.New (2 allocs) + a closure per parallel chunk + the
	// WaitGroup-spawned goroutines. 16 is a loose roof far under "per tuple".
	if n := testing.AllocsPerRun(20, func() { ev.EvalAttributedLazyInto(rel, &buf) }); n > 16 {
		t.Fatalf("EvalAttributedLazyInto steady state = %.0f allocs/run, want <= 16", n)
	}
	first := ev.EvalFirstInto(rel, nil)
	if n := testing.AllocsPerRun(20, func() { first = ev.EvalFirstInto(rel, first) }); n > 8 {
		t.Fatalf("EvalFirstInto steady state = %.0f allocs/run, want <= 8", n)
	}
	scratch := make([]index.CheckAttribution, 0, ev.MaxRuleChecks())
	if n := testing.AllocsPerRun(50, func() { ev.AttributeRuleAppend(0, rel, 0, scratch[:0]) }); n > 0 {
		t.Fatalf("AttributeRuleAppend with scratch = %.0f allocs/run, want 0", n)
	}
}

// FuzzEvalAttributedLazy drives the lazy-vs-oracle equivalence from the
// fuzzer: every int64 seed is a complete random instance.
func FuzzEvalAttributedLazy(f *testing.F) {
	for _, seed := range []int64{0, 1, 7, 42, 1234, -99} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		s := testutil.RandomSchema(rng)
		rel := testutil.RandomRelation(rng, s, rng.Intn(200))
		rs := testutil.RandomRuleSet(rng, s, rng.Intn(6))
		ev := index.Compile(s, rs)
		var buf index.AttributionBuffer
		gotSet := ev.EvalAttributedLazyInto(rel, &buf)
		checkLazy(t, ev, rel, gotSet, &buf, fmt.Sprintf("seed %d", seed))
	})
}
